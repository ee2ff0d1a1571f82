"""Independent verification paths for the simulation pipeline.

Four checks.  The first two share no code with the production route
beyond the operator algebra and, for the first, model's closed
Hamiltonian; the third checks the grid's form terms against its own
stacks, and the fourth is built from production runs:

  * master_equation_n: n_j(t) from the Lindblad equation under model's H
    and modes, against production's U, stacks, forms and bath Lyapunov
    solve; at lambda1 = lambda2 = 0 it is the closed Schrodinger evolution.

  * propagator_residual: the one-step semigroup defect of the two factor
    stacks a grid keeps, against E = exp(i U dt) for the grid's own
    generator U from this module's own exponential, _expm, which takes a
    square matrix of any size.  By induction it bounds the error of V at
    every grid point, at rounding scale, in O(sqrt(nt)) time and scratch.

  * form_defect: the forms the grid's outer_terms and inner_terms give,
    for one fixed Hermitian weight at 16 grid points, against the same
    forms taken from the player rows O_q I_b multiplied out from the
    stacks.  With propagator_residual it ties every form to V.

  * ltp_residual: the decision functions compared against the classical
    law of total probability.  Four conditional simulations started from
    the sharp basis states give p_j(1; t | k, m); mixing them with the
    weights |alpha_km|^2 gives the classical prediction, and the residual
    R_j(t) is the actual decision function minus that prediction.  For
    this model the direct part of n_j is linear in |alpha_km|^2 and the
    bath part does not depend on the initial player state at all, so the
    residual isolates exactly the interference part dmu_j; the comparison
    is still run through the four conditional simulations, not through
    that identity.  A sharp state's Gram matrix is diagonal, so its
    interference part is +0.0 and each conditional n is its direct form
    plus the bath part of the shared run context, with a run's run-time
    checks; it is the n of the full run from that state bit for bit, and
    R never reads dmu.  The conditional runs come from
    dynamics.conditional_stack, which keeps their n as one array in the
    run context of (params, t_max, dt, reservoir): a sweep over initial
    states, or a second scenario that differs only in its initial state,
    runs them once.

Matrix residuals use the maximum absolute entry as the norm, which is
cheap and adequate for fixed 4x4 operators.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .dynamics import PropagatorGrid, _player_forms, conditional_stack, decision_series
from .model import _MODES, _N_DIAG, Scenario, closed_hamiltonian

__all__ = [
    "master_equation_n",
    "propagator_residual",
    "form_defect",
    "ltp_residual",
]

# the fixed Hermitian weight form_defect reads: seeded, of 2-norm 1 (the
# stdlib generator, which the package loads already, unlike numpy.random)
_rng = random.Random(0)
_X = np.reshape([_rng.gauss(0.0, 1.0) for _ in range(32)], (4, 4, 2)) @ (1.0, 1j)
_FORM_WEIGHT = (_X + _X.conj().T) / np.linalg.norm(_X + _X.conj().T, 2)


def master_equation_n(s: Scenario, points) -> np.ndarray:
    """(n1, n2) at the grid times k dt, k in points, from the Lindblad equation:

    drho/dt = -i[H, rho] + sum_j 2 Gamma_j ((1 - N_j) D[b_j] + N_j D[b_j^dag]) rho,
    D[c] rho = c rho c^dag - {c^dag c, rho} / 2, from rho = psi0 psi0^dag, stepped
    over each gap g of the nondecreasing points by exp(L g dt), one _expm per g > 0.
    """
    gaps = np.diff(points, prepend=0).tolist()
    L = _liouvillian(s)
    E = {g: _expm(L * (g * s.dt)) if g else np.eye(16) for g in set(gaps)}
    rho = np.outer(s.initial.amplitudes, s.initial.amplitudes.conj()).reshape(16)
    diagonals = []
    for g in gaps:
        rho = E[g] @ rho
        diagonals.append(rho[::5].real)  # rho_00 .. rho_33 of the row-stacked rho
    return np.array(diagonals) @ np.transpose(_N_DIAG)


def _liouvillian(s: Scenario) -> np.ndarray:
    """L rho = -i (K rho - rho K^dag) + sum_c r_c c rho c^dag as a 16x16 matrix.

    c runs over (b1, b2, b1^dag, b2^dag) at r_c = 2 Gamma_j (1 - N_j), 2 Gamma_j N_j,
    K = H - (i/2) sum_c r_c c^dag c, and vec(A rho C) = kron(A, C^T) vec(rho).
    """
    p, r = s.params, s.reservoir
    rates = 2 * np.array([p.gamma1, p.gamma2] * 2) * (1 - r.N1, 1 - r.N2, r.N1, r.N2)
    K = closed_hamiltonian(p) - 0.5j * np.einsum("m,mba,mbc->ac", rates, _MODES.conj(), _MODES)
    jumps = np.einsum("m,mab,mcd->acbd", rates, _MODES, _MODES.conj()).reshape(16, 16)
    return jumps - 1j * (np.kron(K, np.eye(4)) - np.kron(np.eye(4), K.conj()))


def propagator_residual(grid: PropagatorGrid) -> float:
    """Max norm of the one-step semigroup defect of the grid's two stacks.

    With E = exp(i U dt) for U = grid.generator, B = inner.shape[-1] and
    nq = outer.shape[-1], the defect is the largest entry of

        I_0 - 1,   O_0 - 1[:2],   I_{b+1} - I_b E   (b < B - 1),
        O_{q+1} - O_q (I_{B-1} E)   (q < nq - 1),

    for the outer stack O_q = V(t_qB)[:2] and the inner stack I_b = V(t_b)
    the forms read.  By induction it bounds the error of every player row
    O_q I_b against V(t_{qB+b}) = E^{qB+b}, so it reads at rounding scale
    for a correct grid and sees an error of that size in any stack matrix.
    E comes from _expm, not from the production exponential; time and
    scratch are O(sqrt(nt)), and nothing is kept.  Needs at least 2 points.
    """
    times = grid.times
    if len(times) < 2:
        raise ValueError("residual needs at least 2 grid points")
    E = _expm(1j * grid.generator * (times[1] - times[0]))
    O = grid.outer.transpose(2, 0, 1)  # [q, j, a]
    I = grid.inner.transpose(2, 0, 1)  # [b, a, c]
    defects = [I[0] - np.eye(4), O[0] - np.eye(4)[:2],
               I[:-1] @ E - I[1:], O[:-1] @ (I[-1] @ E) - O[1:]]
    return float(np.max([np.abs(d).max(initial=0.0) for d in defects]))  # a nan stays


def form_defect(grid: PropagatorGrid) -> float:
    """Max distance of the forms the grid's terms give from its stacks'.

    For one fixed Hermitian W, at 16 evenly spaced grid points t_{qB+b},
    the largest |f_j^W(t) - Re sum_mn conj(V_jm) W_mn V_jn| over both
    players, with f_j^W the production form, which reads only outer_terms
    and inner_terms, and the player rows V(t)[:2] = O_q I_b multiplied out
    from the stacks outer and inner.  It reads at rounding scale when the
    terms hold what the stacks do.
    """
    points = np.linspace(0, len(grid.times) - 1, 16).round().astype(int)
    q, b = np.divmod(points, grid.inner.shape[-1])
    V = np.einsum("jmp,mnp->pjn", grid.outer[..., q], grid.inner[..., b])
    direct = np.einsum("pjm,mn,pjn->jp", V.conj(), _FORM_WEIGHT, V).real
    return float(np.abs(_player_forms(grid, _FORM_WEIGHT)[:, points] - direct).max())


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) for one square complex matrix M of any size.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
    M is divided by 2^s, s >= 0, so that its 1-norm is below 1/2, the
    Taylor terms X^k / k! of the scaled X are summed up to k = 16, whose
    remainder is below 1e-19 of the sum, and the sum is squared s times.
    """
    M = np.asarray(M, dtype=complex)
    s = max(0, math.frexp(np.abs(M).sum(axis=0).max(initial=0.0))[1] + 1)
    X = M / 2.0 ** s
    term = E = np.eye(len(M), dtype=complex)
    for k in range(1, 17):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def ltp_residual(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Law-of-total-probability residual series for both players.

    Runs the scenario itself plus the four conditional runs from the
    sharp basis initial states phi_km, then returns (times, R) where
    R[:, j-1] = n_j(t) - sum_km |alpha_km|^2 n_j(t | started from phi_km).

    The residual vanishes identically for basis-state initial conditions
    and reproduces the interference part dmu_j for superpositions.

    The conditional runs' n comes from dynamics.conditional_stack(s), a
    (4, 2, nt) array: the first time s's run context asks for it, each
    conditional run is its sharp state's mu form plus the context's nB
    (its dmu is +0.0), checked as any run is, and a NumericalError there
    keeps none of them.  The classical prediction is one product of the
    weights |alpha_km|^2 with that array, laid out as the run's n, and R
    is n minus it, in the prediction's own buffer.
    """
    series = decision_series(s)
    weights = np.abs(s.initial.amplitudes) ** 2
    R = (weights @ conditional_stack(s).reshape(4, -1)).reshape(2, -1).T
    np.subtract(series.n, R, out=R)
    return series.times, R
