"""Independent verification paths for the simulation pipeline.

Four checks.  The first two share no code with the production route
beyond the operator algebra and, for the first, model's closed
Hamiltonian; the third checks the grid's form terms against its own
stacks, and the fourth is built from production runs:

  * exact_closed_evolution: for zero bath coupling the joint state obeys
    an ordinary 4-dimensional Schrodinger equation with the Hermitian
    Hamiltonian H = model.closed_hamiltonian, solved exactly through the
    eigendecomposition of H.  The decision functions are then plain
    expectation values <psi(t), n_j psi(t)>.  The production route
    instead takes the Heisenberg route: U from the same H, the propagator
    stacks and the Gram forms.  Agreement of the two checks that route
    end to end; the couplings themselves are pinned by the tests' literal
    U and H.

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
from .model import _N_DIAG, InitialState, ModelParams, Scenario, closed_hamiltonian

__all__ = [
    "exact_closed_evolution",
    "propagator_residual",
    "form_defect",
    "ltp_residual",
]

# the fixed Hermitian weight form_defect reads: seeded, of 2-norm 1 (the
# stdlib generator, which the package loads already, unlike numpy.random)
_rng = random.Random(0)
_X = np.reshape([_rng.gauss(0.0, 1.0) for _ in range(32)], (4, 4, 2)) @ (1.0, 1j)
_FORM_WEIGHT = (_X + _X.conj().T) / np.linalg.norm(_X + _X.conj().T, 2)


def exact_closed_evolution(params: ModelParams, initial: InitialState,
                           times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact decision functions for zero bath coupling.

    psi(t) = exp(-i H t) psi0 through the eigendecomposition of the
    Hermitian H; returns (<n1>(t), <n2>(t)).  Raises ValueError when
    called with nonzero bath couplings, where no closed 4-dimensional
    evolution exists.
    """
    if params.lambda1 != 0.0 or params.lambda2 != 0.0:
        raise ValueError(
            f"closed evolution requires lambda1 = lambda2 = 0, got "
            f"{params.lambda1}, {params.lambda2}")
    times = np.asarray(times, dtype=float)
    H = closed_hamiltonian(params)
    energies, Q = np.linalg.eigh(H)
    coeffs = Q.conj().T @ initial.amplitudes
    phases = np.exp(-1j * np.outer(times, energies))
    psi_t = (Q @ (phases * coeffs).T).T
    prob = np.abs(psi_t) ** 2
    n1, n2 = (prob @ d for d in _N_DIAG)
    return n1, n2


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
