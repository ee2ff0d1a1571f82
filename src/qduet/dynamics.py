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

A propagator grid is a value of (U, t_max, dt): its times are
make_times(t_max, dt), its generator a read-only copy of U, and of V it
holds only the player rows:
rows[c, j - 1, k] = V_jc(t_k) for j = 1, 2, a read-only (4, 2, nt) array
of 128 bytes per point, half of V and the half every form reads.  No
(nt, 4, 4) array of V is formed.  f_j^W(t_k) is the Hermitian form
Re(conj(x) W x^T) in the 4-vector x = rows[:, j - 1, k].

The rows come from a two-level table: with B = ceil(sqrt(nt)),
V(t_{qB+b}) = V(t_{qB}) V(t_b), so the rows of the grid are those of the
outer stack O_q = V(t_{qB})[:2] times the inner stack I_b = V(t_b), about
sqrt(nt) matrices each.  One loop multiplies them out a block of whole
table rows at a time, in a fixed order and with no BLAS call, and the
stacks are dropped once the rows are built.  The two routes differ only
in where the stacks come from:

  * Eigendecomposition: U = P diag(w) P^-1, so O_q = P[:2] diag(phi(t_qB))
    and I_b = diag(phi(t_b)) P^-1 with the phase vector phi(t) = exp(i w t),
    2 sqrt(nt) phase vectors in all.  The rows of V round at eps cond(P).
    (A form could also be taken in the eigenbasis as phi^H C phi, with
    C_ab = conj(P_ja) P_jb (conj(P^-1) W P^-T)_ab, and need no rows; but
    its terms grow like cond(P)^2 and round at eps cond(P)^2, which near
    an exceptional point, at cond(P) ~ 1e4, fails the 1e-10 Born check at
    t = 0.)
  * Exponential table: both stacks from one batched scaling-and-squaring
    Taylor series each, _expm_stack, which needs no eigenvectors and so
    holds at exceptional points.

One kernel, _form, evaluates the forms in fixed chunks of CHUNK_POINTS
grid points, so the scratch an assembly needs is bounded whatever t_max
is.  U is not normal once damping and couplings compete, so P can be
ill-conditioned near parameter points where eigenvalues coalesce; the
table runs instead when cond(P) exceeds 1e8 or when P P^-1 misses the
identity by more than 1e-12.

A Scenario is valid by construction, so nothing here validates it
again.  Runs in one information environment, that is with the same
(params, t_max, dt, reservoir), differ only in the initial state: a run,
its four law-of-total-probability conditional runs and a sweep over
initial states.  They share one run context, and one slot keeps the
last context, keyed on (params, t_max, dt, reservoir).  Its record holds

  * the propagator grid, with read-only times and player rows, from
    scenario_grid;
  * the read-only nB, from one bath_contribution call when the context
    is built, so that a run assembles only its mu and dmu forms;
  * the last series decision_series assembled, returned again (under the
    caller's scenario, and so the caller's label) for the same initial
    state;
  * once conditional_runs asks for them, the read-only n of the four
    runs started from the sharp basis states.

The slot is emptied before a different context is built, so at most one
record is held, and it stays in memory after a run.  A run that fails
keeps no series, and a failing conditional run keeps no conditional n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import build_mode_operators
from .model import (
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    born_probabilities,
    build_generator,
    grid_steps,
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
    "conditional_runs",
]

COND_LIMIT = 1e8
IDENTITY_TOL = 1e-12
BOUND_TOL = 1e-8
# grid points per chunk of the quadratic-form kernel; the row build takes
# blocks of whole table rows of B points, at least one
CHUNK_POINTS = 16384

# B = (b1, b2, b1^dag, b2^dag), the operators the quadratic form runs over
_b1, _b2 = build_mode_operators()
_MODES = np.stack([_b1, _b2, _b1.conj().T, _b2.conj().T])

# the record of the last run context, under its key; at most one entry
_context_slot: dict = {}


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (diagnostics in message)."""


@dataclass(frozen=True)
class PropagatorGrid:
    """The player rows of V(t_k) = exp(i U t_k) on a uniform grid from 0.

    times = make_times(t_max, dt) and the generator U are read-only.
    rows[c, j - 1, k] = V_jc(t_k) for the players j = 1, 2, a read-only
    (4, 2, nt) complex array built by propagator.  used_fallback is True
    when the factor stacks of the rows came from the scaling-and-squaring
    exponential instead of the eigendecomposition; the rows are built the
    same way on either route.
    """

    times: np.ndarray
    generator: np.ndarray
    used_fallback: bool
    rows: np.ndarray


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
    """Uniform grid 0, dt, ..., grid_steps(t_max, dt) * dt (inclusive)."""
    return np.arange(grid_steps(t_max, dt) + 1) * dt


def propagator(U: np.ndarray, t_max: float, dt: float) -> PropagatorGrid:
    """The player rows of V(t) = exp(i U t) on the grid make_times(t_max, dt).

    With B = ceil(sqrt(nt)), rows of V(t_{qB+b}) = O_q I_b are multiplied
    out of two stacks: the outer player rows O_q = V(t_{qB})[:2] and the
    inner I_b = V(t_b).  The route decides only where the stacks come
    from.  Route 1: one eigendecomposition U = P diag(w) P^-1, with
    O_q = P[:2] diag(exp(i w t_qB)) and I_b = diag(exp(i w t_b)) P^-1.
    Route 2 (fallback): both stacks from _expm_stack; it runs when P is
    ill-conditioned (cond > 1e8, U nearly defective) or when P P^-1
    misses the identity by more than 1e-12.  One BLAS-free loop builds
    the rows of either route a block of whole table rows (about
    CHUNK_POINTS points) at a time, writing each block straight into the
    result.  The grid keeps its times, a copy of U and the rows read-only.
    A (t_max, dt) that breaks grid_steps' rule is a ScenarioError.
    """
    U = np.array(U, dtype=complex)
    if not np.all(np.isfinite(U)):
        raise ValueError("generator contains non-finite entries")
    times = make_times(t_max, dt)
    U.flags.writeable = times.flags.writeable = False
    nt = len(times)
    B = math.isqrt(nt - 1) + 1  # ceil(sqrt(nt))
    try:
        w, P = np.linalg.eig(U)
        cond = np.linalg.cond(P)
    except np.linalg.LinAlgError:
        cond = np.inf
    used_fallback = True
    if np.isfinite(cond) and cond <= COND_LIMIT:
        Pinv = np.linalg.inv(P)
        if np.abs(P @ Pinv - np.eye(4)).max() <= IDENTITY_TOL:
            used_fallback = False
            outer = P[:2] * np.exp(1j * np.outer(times[::B], w))[:, None, :]
            inner = np.exp(1j * np.outer(times[:B], w))[:, :, None] * Pinv
    if used_fallback:
        outer = _expm_stack(1j * U * times[::B, None, None])[:, :2]
        inner = _expm_stack(1j * U * times[:B, None, None])
    # blocks of whole table rows, then the short last row if B misses nt
    full, last = divmod(nt, B)
    per_block = max(1, CHUNK_POINTS // B)
    blocks = [(q, min(q + per_block, full), B) for q in range(0, full, per_block)]
    if last:
        blocks.append((full, full + 1, last))
    # O[a, j, q, 0] and I[a, c, 0, b], I contiguous along b
    O = outer.transpose(2, 1, 0)[..., None]
    I = np.ascontiguousarray(inner.transpose(1, 2, 0))[:, :, None, :]
    rows = np.empty((4, 2, nt), dtype=complex)
    for q0, q1, width in blocks:
        # rows[c, j, qB + b] = sum_a O_q[j, a] I_b[a, c], summed in a fixed
        # order with no BLAS call, so the blocking never changes a bit.  Each
        # (c, j) block is a contiguous (q, b) view of rows, which numpy adds
        # into in place without a copy of the block
        for c, j in np.ndindex(4, 2):
            span = rows[c, j, q0 * B:q0 * B + (q1 - q0) * width]
            block = span.reshape(q1 - q0, width)
            np.multiply(O[0, j, q0:q1], I[0, c, :, :width], out=block)
            for a in range(1, 4):
                block += O[a, j, q0:q1] * I[a, c, :, :width]
    rows.flags.writeable = False
    return PropagatorGrid(times, U, used_fallback, rows)


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


def _form(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Re(conj(x) W x^T) for every 4-vector x[:, ...], W Hermitian, as an
    array of shape x.shape[1:].

    Only the upper triangle of W is read.  The terms are summed
    elementwise in a fixed order, skipping zero weights, with no BLAS
    call: a zero weight adds an exact zero and each output depends only
    on its own x, so the chunking never changes a bit.  (BLAS worker
    threads exist at all only when numpy was imported before qduet or a
    thread count was set.)
    """
    f = np.zeros(x.shape[1:])
    # every term's scratch in one allocation, the product p and two real
    # terms t: a fresh temporary per term would be mapped, or trimmed and
    # faulted in again, on every call once a chunk passes glibc's 128 KiB
    # mmap threshold
    scratch = np.empty(4 * f.size)
    p = scratch[:2 * f.size].view(complex).reshape(f.shape)
    t = scratch[2 * f.size:].reshape((2,) + f.shape)
    for a in range(4):
        if W[a, a].real:
            np.square(x[a].real, out=t[0])
            np.square(x[a].imag, out=t[1])
            t[0] += t[1]
            t[0] *= W[a, a].real
            f += t[0]
        for b in range(a + 1, 4):
            if W[a, b]:
                np.conjugate(x[a], out=p)
                p *= x[b]
                # 2 Re(c p), doubling c instead of the sum (exact either way)
                np.multiply(p.real, 2.0 * W[a, b].real, out=t[0])
                if W[a, b].imag:
                    np.multiply(p.imag, 2.0 * W[a, b].imag, out=t[1])
                    t[0] -= t[1]
                f += t[0]
    return f


def _player_forms(grid: PropagatorGrid, W: np.ndarray) -> np.ndarray:
    """(f_1^W, f_2^W) on the grid as a (2, nt) array; W Hermitian.

    Only the upper triangle of W and the real part of its diagonal are
    read.  f_j^W(t_k) is the form in the 4-vector grid.rows[:, j - 1, k],
    evaluated in chunks of CHUNK_POINTS points, writing into one array
    whose transpose is returned.
    """
    out = np.empty((len(grid.times), 2))
    for k0 in range(0, len(grid.times), CHUNK_POINTS):
        out[k0:k0 + CHUNK_POINTS] = _form(grid.rows[..., k0:k0 + CHUNK_POINTS], W).T
    return out.T


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
    solution of A N + N A^dag = D, A = i grid.generator, exact on either
    propagator route.  Shape as in mu_player.
    """
    A = 1j * grid.generator
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


@dataclass
class _Context:
    """What every run in one (params, t_max, dt, reservoir) context shares."""

    grid: PropagatorGrid
    nB: np.ndarray
    series: DecisionSeries | None = None
    conditional_n: tuple[np.ndarray, ...] | None = None


def _context(s: Scenario) -> _Context:
    """The kept record of s's run context, built with its grid and nB if new."""
    key = (s.params, s.t_max, s.dt, s.reservoir)
    context = _context_slot.get(key)
    if context is None:
        _context_slot.clear()  # release the old record before building the next
        grid = propagator(build_generator(s.params), s.t_max, s.dt)
        nB = bath_contribution(s.reservoir, s.params, grid).T
        nB.flags.writeable = False
        context = _context_slot[key] = _Context(grid, nB)
    return context


def scenario_grid(s: Scenario) -> PropagatorGrid:
    """The propagator grid of s, the one its run context keeps.

    The grid is propagator(build_generator(s.params), s.t_max, s.dt), the
    only build of U, once per run context, that is per (s.params, s.t_max,
    s.dt, s.reservoir): scenarios that differ only in initial state or
    label share it.  A new context is built whole, its nB included.  The
    slot is emptied before a different context is built, so at most one
    grid is ever held, and it stays in memory after the run.
    """
    return _context(s).grid


def decision_series(s: Scenario) -> DecisionSeries:
    """Run a scenario: propagate, assemble n_j = mu + dmu + nB.

    The grid and nB come from the run context of s, keyed on (params,
    t_max, dt, reservoir): nB is assembled with the context's grid and
    read-only, so a run assembles its mu and dmu forms only.  The
    returned times array is the grid's read-only one.
    Two checks run on every assembly: n_j(0) must reproduce the Born
    marginals within 1e-10, and the decision functions must stay inside
    [-1e-8, 1 + 1e-8]; violations raise NumericalError with the
    offending values.  nB(0) is 0 by construction (the bath form is taken
    relative to its value at t=0); dmu(0) is not checked on its own.

    The context also keeps the last result.  A call with the same initial
    state in the same context returns the kept arrays with scenario=s, so
    the label is always the caller's.  The mu, dmu, nB and n arrays are
    read-only.  The kept series is dropped before a different run is
    assembled, so a failed run leaves none.
    """
    context = _context(s)
    last = context.series
    if last is not None and last.scenario.initial == s.initial:
        return replace(last, scenario=s)
    context.series = None  # release the old series before assembling the next
    grid = context.grid
    mu = mu_player(grid, s.initial).T
    dmu = delta_mu(grid, s.initial).T
    n = mu + dmu + context.nB

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
    for values in (mu, dmu, n):
        values.flags.writeable = False
    series = DecisionSeries(times=grid.times, mu=mu, dmu=dmu, nB=context.nB,
                            n=n, scenario=s)
    context.series = series
    return series


def conditional_runs(s: Scenario) -> tuple[np.ndarray, ...]:
    """n of the four runs of s's context started from sharp basis states.

    A tuple of read-only (nt, 2) arrays in basis order phi_00, phi_10,
    phi_01, phi_11, the conditional runs of the law of total
    probability.  They depend on s only through its run context, which
    keeps them: the first call in a context runs each as a full
    decision_series call, run-time checks included, labelled
    "<label>|phi<k><l>"; later calls return the kept tuple.  A
    NumericalError in any of them keeps none.
    """
    context = _context(s)
    if context.conditional_n is None:
        context.conditional_n = tuple(
            decision_series(replace(
                s, initial=InitialState.basis_state(k, l),
                label=f"{s.label}|phi{k}{l}")).n
            for l in (0, 1) for k in (0, 1))
    return context.conditional_n
