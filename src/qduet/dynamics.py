"""Propagator and decision functions on a uniform time grid.

The reduced mode dynamics has the closed solution b(t) = V(t) b(0) + noise
with the propagator V(t) = exp(i U t).  Averaging the number operators in
the initial joint state and over the bath splits each decision function
into three parts,

    n_j(t) = mu_j(t) + dmu_j(t) + nB_j(t),

each a quadratic form in the player rows of V(t),

    f_j^W(t) = sum_kl conj(V_jk(t)) V_jl(t) W_kl,    j = 1, 2,

for a Hermitian 4x4 weight W:

  * mu_j = f_j^{diag G} and dmu_j = f_j^{G - diag G}, with the Gram matrix
    G_kl = <B_k psi, B_l psi> of B = (b1, b2, b1^dag, b2^dag) on the
    initial state psi.  mu_j is linear in the probabilities |alpha_kl|^2,
    so it obeys the classical law of total probability on its own; the
    interference part dmu_j vanishes for any single basis state.
  * nB_j = 2 pi (integral from 0 to t of V D V^dag ds)_jj, the bath feed,
    with D = diag(k1 N1, k2 N2, k1 (1 - N1), k2 (1 - N2)) and
    k_j = lambda_j^2/Omega_j.  With A = i U the derivative of V N V^dag
    is V (A N + N A^dag) V^dag, so any solution N of the Lyapunov
    equation A N + N A^dag = D gives the integral exactly as
    V N V^dag - N, and nB_j = 2 pi (f_j^{N^T}(t) - f_j^{N^T}(0)) on either
    propagator route.  A decoupled player (lambda_j = 0) makes the
    equation singular; any least-squares N is still exact, because a null
    solution X obeys A X + X A^dag = 0, is constant under the flow and
    cancels.

The propagator is computed from one eigendecomposition of U per scenario,
V(t) = P diag(exp(i w t)) P^-1, which costs O(1) linear algebra plus O(nt)
phase arithmetic for the whole grid.  U is not normal once damping and
couplings compete, so the eigenvector matrix can be ill-conditioned near
parameter points where eigenvalues coalesce; the module falls back to a
two-level exponential table when cond(P) exceeds 1e8 or when the
reconstructed V(0) misses the identity by more than 1e-12.  With
B = ceil(sqrt(nt)) and k = q B + b, the table reads
V(t_k) = V(t_{qB}) V(t_b): two stacks of about sqrt(nt) exponentials,
each from one batched scaling-and-squaring Taylor series, then one
batched product.

A scenario's grid depends only on (params, t_max, dt), so a run, its
four law-of-total-probability conditional runs and a sweep over initial
states share one.  scenario_grid alone builds it and keeps the last one,
keyed on (params, t_max, dt), with read-only times and V arrays; at most
one grid is held, and it stays in memory after a run.

A run depends on every scenario field but the label, so decision_series
keeps its last result too, keyed on (params, t_max, dt, reservoir,
initial).  Its mu, dmu, nB and n arrays are read-only, like times; a
repeated call returns the same arrays under the caller's scenario (and
so the caller's label) instead of assembling them again.  At most one
series is held, and it is dropped before a different one is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import build_mode_operators
from .model import (
    EvolutionGenerator,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    born_probabilities,
    build_generator,
    validate_scenario,
)

__all__ = [
    "NumericalError",
    "PropagatorGrid",
    "DecisionSeries",
    "make_times",
    "propagator",
    "mu_player",
    "delta_mu",
    "bath_contribution",
    "scenario_grid",
    "decision_series",
]

COND_LIMIT = 1e8
IDENTITY_TOL = 1e-12
BOUND_TOL = 1e-8

# B = (b1, b2, b1^dag, b2^dag), the operators the quadratic form runs over
_b1, _b2 = build_mode_operators()
_MODES = np.stack([_b1, _b2, _b1.conj().T, _b2.conj().T])

# the last grid scenario_grid built, under its key; at most one entry
_grid_slot: dict = {}
# the last series decision_series assembled, under its key; at most one entry
_series_slot: dict = {}


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (diagnostics in message)."""


@dataclass(frozen=True)
class PropagatorGrid:
    """V(t_k) = exp(i U t_k) sampled on a uniform grid starting at 0.

    used_fallback is True when the two-level exponential table ran
    instead of the eigendecomposition route.
    """

    times: np.ndarray
    V: np.ndarray
    used_fallback: bool


@dataclass(frozen=True)
class DecisionSeries:
    """Decision functions and their three parts on the grid.

    Component arrays have shape (nt, 2); column j-1 belongs to player j.
    n = mu + dmu + nB row by row.  The originating scenario is kept for
    labeling and default analysis windows; synthetic series may set it
    to None.
    """

    times: np.ndarray
    mu: np.ndarray
    dmu: np.ndarray
    nB: np.ndarray
    n: np.ndarray
    scenario: Scenario | None = None

    @property
    def n1(self) -> np.ndarray:
        return self.n[:, 0]

    @property
    def n2(self) -> np.ndarray:
        return self.n[:, 1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])


def make_times(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, ..., round(t_max/dt)*dt (inclusive)."""
    n_steps = int(round(t_max / dt))
    return np.arange(n_steps + 1) * dt


def _check_times(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-d grid with at least 2 points")
    if abs(times[0]) > 1e-12:
        raise ValueError(f"times must start at 0, got {times[0]!r}")
    steps = np.diff(times)
    dt = float(times[1] - times[0])
    if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-15):
        raise ValueError("times must be uniformly increasing")
    return dt


def propagator(gen: EvolutionGenerator, times: np.ndarray) -> PropagatorGrid:
    """Evaluate V(t) = exp(i U t) on the whole grid.

    Route 1: one eigendecomposition U = P diag(w) P^-1, then
    V(t) = P diag(exp(i w t)) P^-1 for all grid points at once.  Route 2
    (fallback): the table V(t_{qB+b}) = V(t_{qB}) V(t_b) with
    B = ceil(sqrt(nt)), its two factor stacks from _expm_stack, used when
    P is ill-conditioned (cond > 1e8, U nearly defective) or when route 1
    fails to reproduce V(0) = 1 within 1e-12.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    U = np.asarray(gen.U, dtype=complex)
    if not np.all(np.isfinite(U)):
        raise ValueError("generator contains non-finite entries")

    V = None
    used_fallback = False
    try:
        w, P = np.linalg.eig(U)
        cond = np.linalg.cond(P)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond <= COND_LIMIT:
        Pinv = np.linalg.inv(P)
        phases = np.exp(1j * np.outer(times, w))
        V = np.einsum("ab,tb,bc->tac", P, phases, Pinv)
        if np.abs(V[0] - np.eye(4)).max() > IDENTITY_TOL:
            V = None
    if V is None:
        used_fallback = True
        nt = len(times)
        B = math.isqrt(nt - 1) + 1  # ceil(sqrt(nt))
        outer = _expm_stack(1j * U * times[::B, None, None])
        inner = _expm_stack(1j * U * (times[:B] - times[0])[:, None, None])
        V = (outer[:, None] @ inner[None]).reshape(-1, 4, 4)[:nt]
        if np.abs(V[0] - np.eye(4)).max() > IDENTITY_TOL:
            raise NumericalError(
                f"propagator failed on both routes: eigenvector condition "
                f"number {cond:.3g}, fallback V(0) deviates from identity by "
                f"{np.abs(V[0] - np.eye(4)).max():.3g}")
    return PropagatorGrid(times=times, V=V, used_fallback=used_fallback)


def _expm_stack(M: np.ndarray) -> np.ndarray:
    """exp(M) for each matrix of an (m, 4, 4) stack.

    Scaling and squaring: each M is divided by 2^s, s = ceil(log2 ||M||_1)
    (at least 0), so the degree-18 Taylor series runs on a norm of at most
    1 and its truncation error stays below 1e-17; the result is then
    squared s times.
    """
    s = np.ceil(np.log2(np.maximum(np.abs(M).sum(axis=-2).max(axis=-1), 1.0)))
    X = M / np.exp2(s)[:, None, None]
    E = np.eye(4)
    for k in range(18, 0, -1):
        E = np.eye(4) + X @ E / k
    for i in range(int(s.max())):
        E = np.where((s > i)[:, None, None], E @ E, E)
    return E


def _player_form(V: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_1^W, f_2^W) for one 4x4 V or a (..., 4, 4) stack; W Hermitian.

    Only the upper triangle of W is read.  The terms are summed
    elementwise over a contiguous copy of the two player rows, skipping
    zero weights: a zero weight adds an exact zero, and no BLAS call
    wakes the worker threads on the tall arrays.
    """
    V = np.asarray(V, dtype=complex)
    cols = np.moveaxis(V[..., :2, :], (-1, -2), (0, 1)).copy()
    f = np.zeros(cols.shape[1:])
    for k in range(4):
        if W[k, k] != 0:
            f += W[k, k].real * (cols[k].real ** 2 + cols[k].imag ** 2)
        for l in range(k + 1, 4):
            if W[k, l] != 0:
                f += 2.0 * (W[k, l] * cols[k].conj() * cols[l]).real
    return f[0], f[1]


def _gram(initial: InitialState) -> np.ndarray:
    B = _MODES @ initial.amplitudes
    return B.conj() @ B.T


def mu_player(V: np.ndarray, initial: InitialState) -> tuple[np.ndarray, np.ndarray]:
    """Direct (non-interference) part of both decision functions.

    mu_j = f_j^{diag G}.  Accepts a single 4x4 matrix or a stacked
    (..., 4, 4) array; returns (mu1, mu2) with the leading shape of V.
    """
    return _player_form(V, np.diag(np.diag(_gram(initial))))


def delta_mu(V: np.ndarray, initial: InitialState) -> tuple[np.ndarray, np.ndarray]:
    """Interference part of both decision functions.

    dmu_j = f_j^{G - diag G}.  Every off-diagonal G_kl is a product of two
    distinct amplitudes, so the result is identically zero for any
    single-basis-vector initial state and at t = 0 where the off-diagonal
    V entries vanish.  Shapes as in mu_player.
    """
    G = _gram(initial)
    return _player_form(V, G - np.diag(np.diag(G)))


def bath_contribution(reservoir: ReservoirState, params: ModelParams,
                      grid: PropagatorGrid) -> tuple[np.ndarray, np.ndarray]:
    """Bath part of both decision functions on the grid.

    nB_j = 2 pi (f_j^{N^T}(t) - f_j^{N^T}(0)) with N the least-squares
    solution of A N + N A^dag = D, exact on either propagator route.
    """
    A = 1j * build_generator(params).U
    k1 = params.lambda1 ** 2 / params.Omega1
    k2 = params.lambda2 ** 2 / params.Omega2
    N1, N2 = reservoir.N1, reservoir.N2
    D = np.diag([k1 * N1, k2 * N2, k1 * (1.0 - N1), k2 * (1.0 - N2)])
    eye = np.eye(4)
    L = np.kron(A, eye) + np.kron(eye, A.conj())
    N = np.linalg.lstsq(L, D.reshape(16).astype(complex), rcond=None)[0]
    # clear the rounding noise lstsq leaves where N is zero in exact
    # arithmetic, so that _player_form skips those terms
    N[np.abs(N) < 1e-14 * np.abs(N).max()] = 0.0
    f1, f2 = _player_form(grid.V, N.reshape(4, 4).T)
    return 2.0 * np.pi * (f1 - f1[0]), 2.0 * np.pi * (f2 - f2[0])


def scenario_grid(s: Scenario) -> PropagatorGrid:
    """Validate s and return propagator(build_generator(s.params),
    make_times(s.t_max, s.dt)), reusing the last grid built.

    The cache key is (s.params, s.t_max, s.dt), so scenarios that differ
    only in reservoir, initial state or label share a grid.  The one slot
    is emptied before a different grid is built, so at most one grid is
    ever held, and it stays in memory after the run.  Its times and V
    arrays are read-only.
    """
    validate_scenario(s)
    key = (s.params, s.t_max, s.dt)
    grid = _grid_slot.get(key)
    if grid is None:
        _grid_slot.clear()  # release the old grid before building the next
        grid = propagator(build_generator(s.params), make_times(s.t_max, s.dt))
        grid.times.flags.writeable = False
        grid.V.flags.writeable = False
        _grid_slot[key] = grid
    return grid


def decision_series(s: Scenario) -> DecisionSeries:
    """Run a scenario: validate, propagate, assemble n_j = mu + dmu + nB.

    The propagator comes from scenario_grid(s), keyed on (params, t_max,
    dt), and stays in memory after the run; the returned times array is
    that grid's read-only one.
    Enforces at run time that nB and dmu start at zero, that n_j(0)
    reproduces the Born marginals within 1e-10, and that the decision
    functions stay inside [-1e-8, 1 + 1e-8]; violations raise
    NumericalError with the offending values.

    The last result is kept, keyed on (params, t_max, dt, reservoir,
    initial): every scenario field but the label, and everything
    validate_scenario reads.  A call with the same key returns the kept
    arrays with scenario=s, so the label is always the caller's.  The
    mu, dmu, nB and n arrays are read-only.  The slot is emptied before
    a different run is assembled, so a failed run leaves it empty.
    """
    key = (s.params, s.t_max, s.dt, s.reservoir, s.initial)
    last = _series_slot.get(key)
    if last is not None:
        return replace(last, scenario=s)
    _series_slot.clear()  # release the old series before assembling the next
    grid = scenario_grid(s)
    mu1, mu2 = mu_player(grid.V, s.initial)
    dmu1, dmu2 = delta_mu(grid.V, s.initial)
    nB1, nB2 = bath_contribution(s.reservoir, s.params, grid)

    mu = np.column_stack([mu1, mu2])
    dmu = np.column_stack([dmu1, dmu2])
    nB = np.column_stack([nB1, nB2])
    n = mu + dmu + nB

    _, p1_1, _, p2_1 = born_probabilities(s.initial)
    start_dev = max(abs(n[0, 0] - p1_1), abs(n[0, 1] - p2_1))
    if start_dev > 1e-10:
        raise NumericalError(
            f"n(0) deviates from the Born marginals by {start_dev:.3g} "
            f"(scenario {s.label!r})")
    low, high = n.min(), n.max()
    if low < -BOUND_TOL or high > 1.0 + BOUND_TOL:
        raise NumericalError(
            f"decision function left [0, 1] beyond tolerance {BOUND_TOL}: "
            f"range [{low:.6g}, {high:.6g}] (scenario {s.label!r})")
    for values in (mu, dmu, nB, n):
        values.flags.writeable = False
    series = DecisionSeries(times=grid.times, mu=mu, dmu=dmu, nB=nB, n=n, scenario=s)
    _series_slot[key] = series
    return series
