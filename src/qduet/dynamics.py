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

U is build_generator's plain 4x4 array.  The propagator is kept as the
factors of one of two routes, and no (nt, 4, 4) array of V is formed to
assemble a run.  Both routes give the player rows as a product
V_j(t_{iB+b}) = L_i[j] R_b, so f_j^W(t_{iB+b}) is the Hermitian form
Re(conj(x) C_b x^T) in the 4-vector x = L_i[j], with C_b = conj(R_b) W R_b^T:

  * Eigendecomposition: U = P diag(w) P^-1, so V(t) = P diag(phi(t)) P^-1
    with the phase vector phi(t) = exp(i w t).  B = 1, R_0 = 1, and L_i
    is the player rows of V(t_i), sum_b phi_b(t_i) P_jb P^-1[b], built
    once per grid (128 bytes per point, half of V).  A sweep assembles
    many runs on one grid, and the exponentials and row sums would
    otherwise be paid again in every one.  (The same form is
    phi^H C phi in the eigenbasis, with
    C_ab = conj(P_ja) P_jb (conj(P^-1) W P^-T)_ab, and needs no rows, but
    its terms grow like cond(P)^2 and round at eps cond(P)^2: near an
    exceptional point, at cond(P) ~ 1e4, that fails the 1e-10 Born check
    at t = 0.  The rows of V round at eps cond(P).)
  * Two-level exponential table: with B = ceil(sqrt(nt)),
    V(t_{qB+b}) = O_q I_b, the outer stack O_q = V(t_{qB}) and the inner
    stack I_b = V(t_b) each about sqrt(nt) exponentials from one batched
    scaling-and-squaring Taylor series.  L_q is the player rows of O_q
    and R_b = I_b.

One kernel, _form, evaluates the forms in fixed chunks of about
CHUNK_POINTS grid points, so the scratch an assembly needs is bounded
whatever t_max is.  U is not normal once damping and couplings compete,
so P can be ill-conditioned near parameter points where eigenvalues
coalesce; the table runs instead when cond(P) exceeds 1e8 or when the
eigen route's V(0) misses the identity by more than 1e-12.

A Scenario is valid by construction, so nothing here validates it
again.  A scenario's grid depends only on (params, t_max, dt), so a run,
its four law-of-total-probability conditional runs and a sweep over
initial states share one.  scenario_grid alone builds it and keeps the
last one, keyed on (params, t_max, dt), with read-only times and
factors; at most one grid is held, and it stays in memory after a run.
The grid builds its player factors on the first assembly and its V
array only when V is read (by the propagator defect oracle and by
tests), each at most once.

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
from functools import cached_property

import numpy as np

from .algebra import build_mode_operators
from .model import (
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    born_probabilities,
    build_generator,
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
# grid points per chunk of the quadratic-form kernel and of the eigen
# route's row build; the table route takes whole rows of B points, at
# least one
CHUNK_POINTS = 16384

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
    """V(t_k) = exp(i U t_k) on a uniform grid starting at 0, as factors.

    factors is (w, P, P^-1) on the eigendecomposition route and
    (outer, inner) on the two-level table, which runs instead when
    used_fallback is True.  V, the (nt, 4, 4) array itself, is built from
    the factors on first access and kept read-only; no run reads it.
    """

    times: np.ndarray
    used_fallback: bool
    factors: tuple[np.ndarray, ...]

    @cached_property
    def V(self) -> np.ndarray:
        """The (nt, 4, 4) array of V(t_k), built once from the factors."""
        if self.used_fallback:
            outer, inner = self.factors
            V = (outer[:, None] @ inner[None]).reshape(-1, 4, 4)[:len(self.times)]
        else:
            w, P, Pinv = self.factors
            V = np.einsum("ab,tb,bc->tac", P, _phases(self.times, w), Pinv)
        V.flags.writeable = False
        return V

    @cached_property
    def player_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, R) with V_jc(t_{iB+b}) = sum_a L[a, j, i] R[b, a, c], read-only.

        On the table route L holds the player rows of the outer stack and
        R is the inner stack.  On the eigen route B = 1, R = [1], and L
        holds the player rows of V itself, built once, chunk by chunk, as
        sum_b phi_b(t) P_jb P^-1[b]: half of V, the half every form reads.
        """
        if self.used_fallback:
            outer, inner = self.factors
            return outer[:, :2].transpose(2, 1, 0), inner
        w, P, Pinv = self.factors
        QT = (P[:2, :, None] * Pinv).transpose(1, 2, 0)  # QT[b, c, j] = P_jb P^-1_bc
        rows = np.empty((4, 2, len(self.times)), dtype=complex)
        for k0 in range(0, len(self.times), CHUNK_POINTS):
            phi = _phases(self.times[k0:k0 + CHUNK_POINTS], w).T
            chunk = rows[:, :, k0:k0 + CHUNK_POINTS]
            np.multiply(QT[0, :, :, None], phi[0], out=chunk)
            for b in range(1, 4):
                chunk += QT[b, :, :, None] * phi[b]
        rows.flags.writeable = False
        return rows, np.eye(4)[None]


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


def propagator(U: np.ndarray, times: np.ndarray) -> PropagatorGrid:
    """The factors of V(t) = exp(i U t) on the whole grid.

    Route 1: one eigendecomposition U = P diag(w) P^-1, kept as
    (w, P, P^-1).  Route 2 (fallback): the table
    V(t_{qB+b}) = V(t_{qB}) V(t_b) with B = ceil(sqrt(nt)), kept as its two
    factor stacks from _expm_stack, used when P is ill-conditioned
    (cond > 1e8, U nearly defective) or when route 1 fails to reproduce
    V(0) = 1 within 1e-12.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    U = np.asarray(U, dtype=complex)
    if not np.all(np.isfinite(U)):
        raise ValueError("generator contains non-finite entries")

    try:
        w, P = np.linalg.eig(U)
        cond = np.linalg.cond(P)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond <= COND_LIMIT:
        Pinv = np.linalg.inv(P)
        V0 = np.einsum("ab,tb,bc->tac", P, _phases(times[:1], w), Pinv)[0]
        if np.abs(V0 - np.eye(4)).max() <= IDENTITY_TOL:
            return PropagatorGrid(times=times, used_fallback=False,
                                  factors=(w, P, Pinv))
    B = math.isqrt(len(times) - 1) + 1  # ceil(sqrt(nt))
    outer = _expm_stack(1j * U * times[::B, None, None])
    inner = _expm_stack(1j * U * (times[:B] - times[0])[:, None, None])
    V0_dev = np.abs(outer[0] @ inner[0] - np.eye(4)).max()
    if V0_dev > IDENTITY_TOL:
        raise NumericalError(
            f"propagator failed on both routes: eigenvector condition "
            f"number {cond:.3g}, fallback V(0) deviates from identity by "
            f"{V0_dev:.3g}")
    return PropagatorGrid(times=times, used_fallback=True, factors=(outer, inner))


def _phases(times: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The phase vectors phi(t) = exp(i w t), one row per time."""
    return np.exp(1j * np.outer(times, w))


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


def _form(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Re(conj(x) C x^T) for every 4-vector x[:, ...] and every C of a
    (B, 4, 4) Hermitian stack, as an array of shape (B,) + x.shape[1:].

    Only the upper triangle of each C is read.  The terms are summed
    elementwise in a fixed order, skipping weights that are zero in every
    C: a zero weight adds an exact zero, each output depends only on its
    own x and C (so the chunking never changes a bit), and no BLAS call
    wakes the worker threads.
    """
    real, imag = C.real.any(axis=0), C.imag.any(axis=0)
    f = np.zeros(C.shape[:1] + x.shape[1:])
    for a in range(4):
        if real[a, a]:
            f += np.multiply.outer(C[:, a, a].real, x[a].real ** 2 + x[a].imag ** 2)
        for b in range(a + 1, 4):
            if real[a, b] or imag[a, b]:
                p = x[a].conj() * x[b]
                # 2 Re(c p), doubling c instead of the sum (exact either way)
                term = np.multiply.outer(2.0 * C[:, a, b].real, p.real)
                if imag[a, b]:
                    term -= np.multiply.outer(2.0 * C[:, a, b].imag, p.imag)
                f += term
    return f


def _player_forms(grid: PropagatorGrid, W: np.ndarray) -> np.ndarray:
    """(f_1^W, f_2^W) on the grid as a (2, nt) array; W Hermitian.

    Only the upper triangle of W and the real part of its diagonal are
    read.  With (L, R) = grid.player_factors, f_j^W(t_{iB+b}) is the form
    in the 4-vector L[:, j, i] with weight C_b = conj(R_b) W R_b^T.  It is
    evaluated in chunks of about CHUNK_POINTS points (whole rows of B
    points), writing into one array whose transpose is returned.
    """
    upper = np.triu(W, 1)
    W = upper + upper.conj().T + np.diag(np.diag(W).real)
    L, R = grid.player_factors
    C = R.conj() @ W @ R.transpose(0, 2, 1)
    B = len(R)
    per_chunk = max(1, CHUNK_POINTS // B)
    out = np.empty((L.shape[-1] * B, 2))
    for i in range(0, L.shape[-1], per_chunk):
        f = _form(L[..., i:i + per_chunk], C)  # (B, 2, rows in the chunk)
        out[i * B:(i + per_chunk) * B] = f.transpose(2, 0, 1).reshape(-1, 2)
    return out[:len(grid.times)].T


def _gram(initial: InitialState) -> np.ndarray:
    B = _MODES @ initial.amplitudes
    return B.conj() @ B.T


def mu_player(grid: PropagatorGrid, initial: InitialState) -> np.ndarray:
    """Direct (non-interference) part of both decision functions.

    mu_j = f_j^{diag G} on the grid, returned as a (2, nt) array whose
    rows are mu1 and mu2.
    """
    return _player_forms(grid, np.diag(np.diag(_gram(initial))))


def delta_mu(grid: PropagatorGrid, initial: InitialState) -> np.ndarray:
    """Interference part of both decision functions.

    dmu_j = f_j^{G - diag G}.  Every off-diagonal G_kl is a product of two
    distinct amplitudes, so the result is identically zero for any
    single-basis-vector initial state, and at t = 0, where V is the
    identity, it is zero up to rounding.  Shape as in mu_player.
    """
    G = _gram(initial)
    return _player_forms(grid, G - np.diag(np.diag(G)))


def bath_contribution(reservoir: ReservoirState, params: ModelParams,
                      grid: PropagatorGrid) -> np.ndarray:
    """Bath part of both decision functions on the grid.

    nB_j = 2 pi (f_j^{N^T}(t) - f_j^{N^T}(0)) with N the least-squares
    solution of A N + N A^dag = D, exact on either propagator route.
    Shape as in mu_player.
    """
    A = 1j * build_generator(params)
    k1 = params.lambda1 ** 2 / params.Omega1
    k2 = params.lambda2 ** 2 / params.Omega2
    N1, N2 = reservoir.N1, reservoir.N2
    D = np.diag([k1 * N1, k2 * N2, k1 * (1.0 - N1), k2 * (1.0 - N2)])
    eye = np.eye(4)
    L = np.kron(A, eye) + np.kron(eye, A.conj())
    N = np.linalg.lstsq(L, D.reshape(16).astype(complex), rcond=None)[0]
    # clear the rounding noise lstsq leaves where N is zero in exact
    # arithmetic, so that a decoupled player's feed stays exactly zero
    N[np.abs(N) < 1e-14 * np.abs(N).max()] = 0.0
    f = _player_forms(grid, N.reshape(4, 4).T)
    f -= f[:, :1].copy()
    f *= 2.0 * np.pi
    return f


def scenario_grid(s: Scenario) -> PropagatorGrid:
    """The propagator grid of s, reusing the last grid built.

    The grid is propagator(build_generator(s.params),
    make_times(s.t_max, s.dt)).  The cache key is (s.params, s.t_max,
    s.dt), so scenarios that differ only in reservoir, initial state or
    label share a grid.  The one slot is emptied before a different grid
    is built, so at most one grid is ever held, and it stays in memory
    after the run.  Its times and factor arrays are read-only.
    """
    key = (s.params, s.t_max, s.dt)
    grid = _grid_slot.get(key)
    if grid is None:
        _grid_slot.clear()  # release the old grid before building the next
        grid = propagator(build_generator(s.params), make_times(s.t_max, s.dt))
        for values in (grid.times, *grid.factors):
            values.flags.writeable = False
        _grid_slot[key] = grid
    return grid


def decision_series(s: Scenario) -> DecisionSeries:
    """Run a scenario: propagate, assemble n_j = mu + dmu + nB.

    The propagator comes from scenario_grid(s), keyed on (params, t_max,
    dt), and stays in memory after the run; the returned times array is
    that grid's read-only one.
    Two checks run on every assembly: n_j(0) must reproduce the Born
    marginals within 1e-10, and the decision functions must stay inside
    [-1e-8, 1 + 1e-8]; violations raise NumericalError with the
    offending values.  nB(0) is 0 by construction (the bath form is taken
    relative to its value at t=0); dmu(0) is not checked on its own.

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
    mu = mu_player(grid, s.initial).T
    dmu = delta_mu(grid, s.initial).T
    nB = bath_contribution(s.reservoir, s.params, grid).T
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
