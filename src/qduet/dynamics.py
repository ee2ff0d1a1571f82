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
  * nB_j = 2 pi Q(t)_jj, the bath feed, with Q(t) the integral from 0 to t
    of V D V^dag ds, D = diag(k1 N1, k2 N2, k1 (1 - N1), k2 (1 - N2)),
    k_j = lambda_j^2/Omega_j: by the semigroup law of Q, a form on the
    grid's terms from one exact step Q(dt) (bath_contribution).  Where
    V(t) -> 0, Q -> -N with A N + N A^dag = D, A = i U: stationary_limit.

A propagator grid is a value of (U, t_max, dt): its times are
make_times(t_max, dt), its generator a read-only copy of U, and of V it
holds two factor stacks of about sqrt(nt) matrices each.  With
B = ceil(sqrt(nt)) and nq = ceil(nt / B), V(t_{qB+b}) = V(t_qB) V(t_b), so
the grid keeps the outer stack O_q = V(t_qB)[:2] for q < nq and the inner
stack I_b = V(t_b) for b < B, and no array of nt points.  Every form then
splits over the two stacks,

    f_j^W(t_{qB+b}) = sum_mn conj(O_q[j, m]) O_q[j, n] M_b[m, n],
    M_b = conj(I_b) W I_b^T,

and both factors are Hermitian in (m, n).  A Hermitian 4x4 matrix X is
one real 4x4 matrix, P(X) = Re X + Im X (_pack): Re X is symmetric and
Im X antisymmetric, so P is one-to-one, and for Hermitian X and Y the
cross sums vanish and Re sum_mn X_mn Y_mn = sum_mn P(X)_mn P(Y)_nm.  The
outer products conj(O_q[j, m]) O_q[j, n] depend on the grid alone, so
the grid keeps their P, as a (2 nq, 16) real matrix.  P(M_b)^T is
real-linear in P(W), with coefficients fixed by the grid, which keeps
them as well, as the (16, 16 B) real matrix of inner terms.  A form is
then two products: P(W) times the inner terms gives every P(M_b)^T at
once, as a (16, B) matrix, and one real matrix product of the outer
terms by that gives f at all nq B >= nt table points at once, the first
nt being the grid's.  Those two products are the only BLAS calls an
assembly makes; each output depends only on its own q and b, so they
need no chunking.  Both stacks are one stack of V at one time vector,
the nq outer times then the B inner ones, and the two routes differ only
in the expression for V:

  * Eigendecomposition: U = P diag(w) P^-1, so V(t) = (P diag(phi(t))) P^-1
    with the phase vector phi(t) = exp(i w t), nq + B phase vectors in
    all, and V rounds at eps cond(P).  (A form could also be taken in the
    eigenbasis as phi^H C phi, with C_ab = conj(P_ja) P_jb
    (conj(P^-1) W P^-T)_ab; but its terms grow like cond(P)^2 and round at
    eps cond(P)^2, which near an exceptional point, at cond(P) ~ 1e4,
    fails the 1e-10 Born check at t = 0.)
  * Exponential table: one batched scaling-and-squaring Taylor series,
    _expm_stack, which needs no eigenvectors, rounds at eps whatever
    cond(P) is, and so holds at exceptional points.

U is not normal once damping and couplings compete, so P is
ill-conditioned near parameter points where eigenvalues coalesce.  One
gate picks the route: the eigen route runs where cond(P) <= COND_LIMIT
= 1e3, so that its error, at most 0.93 eps cond(P) in seeded draws near
both exceptional-point families, stays under about 2e-13; the table
route runs everywhere else, a nan cond or a failed eigendecomposition
included.  No player row of V is ever formed: the forms read the two
stacks, and so does the oracle's semigroup defect.

A Scenario is valid by construction, so nothing here validates it
again.  Runs in one information environment, that is with the same
(params, t_max, dt, reservoir), differ only in the initial state: a run,
its four law-of-total-probability conditional runs and a sweep over
initial states.  They share one run context, and one slot keeps the
last context, keyed on (params, t_max, dt, reservoir).  Its record holds

  * the propagator grid, with read-only times, factor stacks and their
    terms, from scenario_grid;
  * the read-only nB, from one bath_contribution call when the context
    is built, so that a run assembles only its mu and dmu forms;
  * the last series decision_series assembled, returned again (under the
    caller's scenario, and so the caller's label) for the same initial
    state;
  * once conditional_stack asks for them, the read-only n of the four
    runs started from the sharp basis states, as one (4, 2, nt) array
    whose [k].T is the (nt, 2) n of run k.
    A sharp state's Gram matrix is diagonal, so its dmu is +0.0 and its
    n is mu + nB: each slot is its run's mu form plus the context's nB,
    checked as a run is, beside the kept series, which stays in place.

The slot is emptied before a different context is built, so at most one
record is held, and it stays in memory after a run.  A run that fails
keeps no series, and a failing conditional run keeps no conditional n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    _MODES,
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
    "stationary_limit",
    "scenario_grid",
    "decision_series",
    "conditional_stack",
]

COND_LIMIT = 1e3
BOUND_TOL = 1e-8

# the record of the last run context, under its key; at most one entry
_context_slot: dict = {}


class NumericalError(RuntimeError):
    """A numerical invariant failed at run time (diagnostics in message)."""


@dataclass(frozen=True)
class PropagatorGrid:
    """V(t_k) = exp(i U t_k) on a uniform grid from 0, as two factor stacks.

    times = make_times(t_max, dt) and the generator U are read-only.  With
    B = ceil(sqrt(nt)) and nq = ceil(nt / B), V(t_{qB+b}) = V(t_qB) V(t_b),
    and the grid keeps the two read-only stacks with the time index last:
    outer[..., q] = V(t_qB)[:2] for q < nq, a (2, 4, nq) complex array, and
    inner[..., b] = V(t_b) for b < B, a (4, 4, B) one.  A Hermitian X
    stands as the real 4x4 matrix P(X) = Re X + Im X (_pack).  outer_terms
    is the left factor every form shares, the read-only (2 nq, 16) real
    matrix whose row (j, q) is P(X) of X_mn = conj(O_q[j, m]) O_q[j, n].
    inner_terms maps P(W) of a Hermitian weight W to P(M_b)^T for every
    M_b = conj(I_b) W I_b^T: the read-only (16, 16 B) real matrix with rows
    over the entries of P(W) and columns over (entry of P(M_b)^T, b), 2048
    bytes per inner matrix.  used_fallback is True when the stacks came
    from the scaling-and-squaring exponential instead of the
    eigendecomposition.  The player rows of V(t_{qB+b}) are
    outer[..., q] @ inner[..., b]; nothing in the package multiplies them
    out, and oracle.propagator_residual checks the two stacks themselves.
    """

    times: np.ndarray
    generator: np.ndarray
    used_fallback: bool
    outer: np.ndarray
    inner: np.ndarray
    outer_terms: np.ndarray
    inner_terms: np.ndarray


@dataclass(frozen=True)
class DecisionSeries:
    """Decision functions and their three parts on the grid.

    Component arrays have shape (nt, 2); column j-1 belongs to player j.
    n = mu + dmu + nB row by row.  The originating scenario is kept with
    the series, for its label and initial state; a series built by hand
    may set it to None.  The analysis functions read the times and n,
    never the scenario.
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
    """V(t) = exp(i U t) on the grid make_times(t_max, dt), as two stacks.

    With B = ceil(sqrt(nt)) the grid keeps the outer player rows
    V(t_qB)[:2] and the inner stack V(t_b), about sqrt(nt) matrices each,
    both from one stack of V at the outer times, then the inner ones.  The
    route sets only the expression for that V.  Route 1, where the
    eigenvector matrix P of U = P diag(w) P^-1 has cond(P) <= COND_LIMIT:
    V(t) = (P diag(exp(i w t))) P^-1.  Route 2 (fallback), everywhere else
    (U nearly defective, a nan cond, or an eigendecomposition that fails):
    V from _expm_stack.  The grid keeps its times, a copy of U, the stacks
    and their terms, outer_terms and inner_terms, each built once by
    broadcast products, all read-only.  A (t_max, dt) that breaks
    grid_steps' rule is a ScenarioError.
    """
    U = np.array(U, dtype=complex)
    if not np.all(np.isfinite(U)):
        raise ValueError("generator contains non-finite entries")
    times = make_times(t_max, dt)
    U.flags.writeable = times.flags.writeable = False
    B = math.isqrt(len(times) - 1) + 1  # ceil(sqrt(nt))
    t = np.concatenate([times[::B], times[:B]])  # outer times, then inner
    try:
        w, P = np.linalg.eig(U)
        cond = np.linalg.cond(P)
    except np.linalg.LinAlgError:
        cond = np.inf
    used_fallback = not cond <= COND_LIMIT  # a nan cond takes the table too
    if used_fallback:
        V = _expm_stack(1j * U * t[:, None, None])
    else:
        V = (P * np.exp(1j * np.outer(t, w))[:, None, :]) @ np.linalg.inv(P)
    outer, inner = V[:-B, :2], V[-B:]
    # the time index last, so that the forms read both stacks along it
    outer = np.ascontiguousarray(outer.transpose(1, 2, 0))
    inner = np.ascontiguousarray(inner.transpose(1, 2, 0))
    O = outer.transpose(1, 0, 2)  # [m, j, q]
    terms = _pack(O.conj()[:, None] * O[None]).reshape(16, -1).T
    # K[c, d] = M_b(E_cd)^T for the matrix unit E_cd, conj(I_b[n, c])
    # I_b[m, d] at [m, n].  The Hermitian W_cd whose P is E_cd is
    # ((1 + i) E_cd + (1 - i) E_dc) / 2, so _pack(M_b(W_cd)^T), row (c, d)
    # of the map, is Re K[c, d] + Im K[d, c]
    I = inner.transpose(1, 0, 2)  # [c, m, b]
    K = I[None, :, :, None] * I.conj()[:, None, None]  # [c, d, m, n, b]
    inner_terms = (K.real + K.imag.swapaxes(0, 1)).reshape(16, -1)
    for array in (outer, inner, terms, inner_terms):
        array.flags.writeable = False
    return PropagatorGrid(times, U, used_fallback, outer, inner, terms, inner_terms)


def _expm_stack(M: np.ndarray) -> np.ndarray:
    """exp(M) for each matrix of an (m, n, n) stack.

    Scaling and squaring: each M is divided by 2^s, s = ceil(log2 ||M||_1)
    (at least 0), so the degree-18 Taylor series runs on a norm of at most
    1 and its truncation error stays below 1e-17; the result is then
    squared s times.
    """
    s = np.ceil(np.log2(np.maximum(np.abs(M).sum(axis=-2).max(axis=-1), 1.0)))
    X = M / np.exp2(s)[:, None, None]
    E = eye = np.eye(M.shape[-1])
    for k in range(18, 0, -1):
        E = eye + X @ E / k
    for i in range(int(s.max())):
        E = np.where((s > i)[:, None, None], E @ E, E)
    return E


def _pack(X: np.ndarray) -> np.ndarray:
    """P(X) = Re X + Im X, the real matrix that stands for Hermitian X."""
    return X.real + X.imag


def _player_forms(grid: PropagatorGrid, W: np.ndarray) -> np.ndarray:
    """(f_1^W, f_2^W) on the grid as a (2, nt) array; W Hermitian.

    f_j^W(t_{qB+b}) = Re sum_mn conj(O_q[j, m]) O_q[j, n] M_b[m, n] with
    M_b = conj(I_b) W I_b^T, that is sum_mn P(X)_mn P(M_b)_nm for the
    outer product X.  Every P(M_b)^T comes from one vector-matrix
    product, P(W) times grid.inner_terms, and one real product of
    grid.outer_terms by those, as a (16, B) matrix, gives f.  The result
    is a view of the first nt of the nq B table points.
    """
    weights = _pack(W).reshape(16) @ grid.inner_terms
    f = grid.outer_terms @ weights.reshape(16, -1)
    return f.reshape(2, -1)[:, :len(grid.times)]


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
    distinct amplitudes, so for any single-basis-vector initial state the
    weight is exactly zero and so is the result, +0.0 throughout; at
    t = 0, where V is the identity, it is zero up to rounding.  Shape as
    in mu_player.
    """
    G = _gram(initial)
    return _player_forms(grid, G - np.diag(np.diag(G)))


def _diffusion(params: ModelParams, reservoir: ReservoirState) -> np.ndarray:
    """D = diag(k1 N1, k2 N2, k1 (1 - N1), k2 (1 - N2)), k_j = lambda_j^2/Omega_j."""
    k1 = params.lambda1 ** 2 / params.Omega1
    k2 = params.lambda2 ** 2 / params.Omega2
    N1, N2 = reservoir.N1, reservoir.N2
    return np.diag([k1 * N1, k2 * N2, k1 * (1.0 - N1), k2 * (1.0 - N2)])


def bath_contribution(reservoir: ReservoirState, params: ModelParams,
                      grid: PropagatorGrid) -> np.ndarray:
    """Bath part of both decision functions on the grid, 2 pi Q(t)_jj.

    Q(dt) = F_12 F_11^dag for F = exp([[A, D], [0, -A^dag]] dt), A = i U
    (Van Loan 1978).  By the semigroup law Q(s + t) = Q(s) + V(s) Q(t)
    V(s)^dag, Q(t_c+1) - Q(t_c) = I_c Q(dt) I_c^dag is the transposed
    inner form of the weight Q(dt)^T, so P(Q(dt)^T) times the inner terms
    gives every P(Q(t_c+1) - Q(t_c)), and their running sum over c < b
    gives P(Q(t_b)).  The offsets Q(t_qB)_jj are the running sum of the
    outer forms of Q(t_B): the grid's terms, read as mu reads them, on
    either route.  nB(0) is +0.0.  Shape as in mu_player.
    """
    A = 1j * grid.generator
    block = np.block([[A, _diffusion(params, reservoir)],
                      [np.zeros((4, 4)), -A.conj().T]])
    F = _expm_stack(block[None] * grid.times[1])[0]
    step = 2.0 * np.pi * _pack(F[:4, :4].conj() @ F[:4, 4:].T).reshape(16)
    steps = (step @ grid.inner_terms).reshape(16, -1)  # P(2 pi (Q(t_c+1) - Q(t_c)))
    weights = np.zeros_like(steps)  # [:, b] is P(2 pi Q(t_b))
    np.cumsum(steps[:, :-1], axis=1, out=weights[:, 1:])
    f = (grid.outer_terms @ weights).reshape(2, -1, steps.shape[1])  # [j, q, b]
    period = grid.outer_terms @ (weights[:, -1] + steps[:, -1])  # of 2 pi Q(t_B)
    offsets = np.zeros((2, f.shape[1], 1))  # 2 pi Q(t_qB)_jj
    np.cumsum(period.reshape(2, -1)[:, :-1], axis=1, out=offsets[:, 1:, 0])
    f += offsets
    return f.reshape(2, -1)[:, :len(grid.times)]


def stationary_limit(params: ModelParams,
                     reservoir: ReservoirState) -> tuple[float, float] | None:
    """(n1(inf), n2(inf)) = -2 pi Re (N_11, N_22), A N + N A^dag = D, A = i U.

    Only if both Gamma_j > 0: then A + A^dag = -2 diag(Gamma1, Gamma2,
    Gamma1, Gamma2) is negative definite, so ||V(t)||_2 <= exp(-Gamma_min t),
    Q(t) -> -N, the equation's Kronecker operator is nonsingular, and
    |n_j(t) - n_j(inf)| <= ||G + 2 pi N^T||_2 exp(-2 Gamma_min t) for any
    initial Gram matrix G.  An undamped player gives None.  No grid.
    """
    if not (params.gamma1 > 0.0 and params.gamma2 > 0.0):
        return None
    A = 1j * build_generator(params)
    L = np.kron(A, np.eye(4)) + np.kron(np.eye(4), A.conj())
    N = np.linalg.solve(L, _diffusion(params, reservoir).reshape(16))
    n1, n2 = -2.0 * np.pi * N.reshape(4, 4).diagonal()[:2].real + 0.0  # no -0.0
    return float(n1), float(n2)


@dataclass
class _Context:
    """What every run in one (params, t_max, dt, reservoir) context shares."""

    grid: PropagatorGrid
    nB: np.ndarray
    series: DecisionSeries | None = None
    conditional_n: np.ndarray | None = None


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


def _check(initial: InitialState, label: str, n: np.ndarray) -> None:
    """The run-time checks of the n of a run from initial; a NumericalError
    on failure names label."""
    _, p1_1, _, p2_1 = born_probabilities(initial)
    # numpy's max keeps a NaN, and each comparison is written so that a
    # NaN fails it
    start_dev = np.abs(n[0] - (p1_1, p2_1)).max()
    if not start_dev <= 1e-10:
        raise NumericalError(
            f"n(0) deviates from the Born marginals by {start_dev:.3g} "
            f"(scenario {label!r})")
    low, high = n.min(), n.max()
    if not (low >= -BOUND_TOL and high <= 1.0 + BOUND_TOL):
        raise NumericalError(
            f"decision function left [0, 1] beyond tolerance {BOUND_TOL}: "
            f"range [{low:.6g}, {high:.6g}] (scenario {label!r})")


def _assemble(s: Scenario, context: _Context) -> DecisionSeries:
    """The run of s on its context's grid and nB, checked; nothing is kept."""
    grid = context.grid
    mu = mu_player(grid, s.initial).T
    dmu = delta_mu(grid, s.initial).T
    n = mu + dmu
    n += context.nB
    _check(s.initial, s.label, n)
    for values in (mu, dmu, n):
        values.flags.writeable = False
    return DecisionSeries(times=grid.times, mu=mu, dmu=dmu, nB=context.nB,
                          n=n, scenario=s)


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
    context.series = _assemble(s, context)
    return context.series


def conditional_stack(s: Scenario) -> np.ndarray:
    """n of the four runs of s's context started from sharp basis states.

    One read-only (4, 2, nt) array in basis order phi_00, phi_10, phi_01,
    phi_11, the conditional runs of the law of total probability;
    conditional_stack(s)[k].T is the (nt, 2) n of run k, a read-only view
    with each player's values contiguous as in a run's n.  It depends on s
    only through its run context, which keeps it.  A sharp state's
    interference part is +0.0 throughout (see delta_mu), so the first call
    in a context fills slot k with mu_player of basis state k plus the
    context's nB, the n of decision_series from that state bit for bit,
    and runs a run's checks on it, labelled "<label>|phi<k><l>"; delta_mu
    is never called, and the context's kept series stays in place.  Later
    calls return the kept array.  A NumericalError in any run keeps none.
    """
    context = _context(s)
    if context.conditional_n is None:
        stack = np.empty((4, 2, len(context.grid.times)))
        for slot, (k, l) in zip(stack, ((0, 0), (1, 0), (0, 1), (1, 1))):
            initial = InitialState.basis_state(k, l)
            slot[...] = mu_player(context.grid, initial)
            slot += context.nB.T
            _check(initial, f"{s.label}|phi{k}{l}", slot.T)
        stack.flags.writeable = False
        context.conditional_n = stack
    return context.conditional_n

