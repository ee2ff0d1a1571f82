"""Independent verification paths for the simulation pipeline.

Three brute-force checks.  The first two share no code with the
production route beyond the operator algebra; the third is built from
whole production runs:

  * exact_closed_evolution: for zero bath coupling the joint state obeys
    an ordinary 4-dimensional Schrodinger equation with the Hermitian
    Hamiltonian

        H = omega1 n1 + omega2 n2 + mu_ex (b1^dag b2 + b2^dag b1)
                                  + mu_coop (b1^dag b2^dag + b2 b1),

    solved exactly through the real eigendecomposition of H.  The
    decision functions are then plain expectation values <psi(t), n_j psi(t)>.
    The production route instead evolves the mode operators with the
    non-Hermitian generator U; agreement of the two is a genuine
    cross-implementation test.

  * propagator_residual: a central-difference check that the player rows
    of a grid's V solve dV/dt = V i U for the grid's own generator U, with
    the expected second-order behavior in dt.  It walks the grid in chunks
    of dynamics.CHUNK_POINTS points of PropagatorGrid.player_rows, so its
    scratch is bounded whatever t_max is.

  * ltp_residual: the decision functions compared against the classical
    law of total probability.  Four conditional simulations started from
    the sharp basis states give p_j(1; t | k, m); mixing them with the
    weights |alpha_km|^2 gives the classical prediction, and the residual
    R_j(t) is the actual decision function minus that prediction.  For
    this model the direct part of n_j is linear in |alpha_km|^2 and the
    bath part does not depend on the initial player state at all, so the
    residual isolates exactly the interference part dmu_j; the comparison
    is still run through the four conditional simulations, not through
    that identity.  Each of the five runs is assembled in full (mu, dmu,
    run-time checks, and the bath part of their shared run context), so R
    never reads dmu.  The conditional runs come from
    dynamics.conditional_stack, which keeps their n as one array in the
    run context of (params, t_max, dt, reservoir): a sweep over initial
    states, or a second scenario that differs only in its initial state,
    runs them once.

Matrix residuals use the maximum absolute entry as the norm, which is
cheap and adequate for fixed 4x4 operators.
"""

from __future__ import annotations

import numpy as np

from . import algebra, dynamics
from .dynamics import PropagatorGrid, conditional_stack, decision_series
from .model import _N_DIAG, InitialState, ModelParams, Scenario

__all__ = [
    "closed_hamiltonian",
    "exact_closed_evolution",
    "propagator_residual",
    "ltp_residual",
]


def closed_hamiltonian(params: ModelParams) -> np.ndarray:
    """Hermitian 4x4 Hamiltonian of the bath-free two-player system."""
    b1, b2 = algebra.build_mode_operators()
    n1, n2 = algebra.number_operators(b1, b2)
    H = (params.omega1 * n1 + params.omega2 * n2
         + params.mu_ex * (b1.conj().T @ b2 + b2.conj().T @ b1)
         + params.mu_coop * (b1.conj().T @ b2.conj().T + b2 @ b1))
    herm_dev = np.abs(H - H.conj().T).max()
    if herm_dev > 1e-12:
        raise ValueError(f"Hamiltonian not Hermitian, deviation {herm_dev:.3g}")
    return H


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
    """Max norm of the central-difference defect of dV/dt = V i U.

    V = exp(i U t) commutes with U = grid.generator, so its player rows obey
    d/dt V_j = V_j i U; the defect is taken at the interior grid points on
    the rows grid.player_rows forms, in chunks of dynamics.CHUNK_POINTS
    points, and no (nt, 4, 4) array of V is formed.  Each point's defect
    depends only on its own rows, so the chunking never changes the result.
    Needs at least 3 points.  The defect of the exact propagator sampled on
    the grid is the Taylor remainder of the central difference, O(dt^2), so
    halving dt must shrink the result by about 4.
    """
    times = grid.times
    nt = len(times)
    if nt < 3:
        raise ValueError("residual needs at least 3 grid points")
    dt = times[1] - times[0]
    iU = 1j * grid.generator
    worst = 0.0
    for k0 in range(1, nt - 1, dynamics.CHUNK_POINTS):
        k1 = min(k0 + dynamics.CHUNK_POINTS, nt - 1)
        worst = np.maximum(worst, _chunk_defect(grid, k0, k1, iU, dt))  # a nan stays
    return float(worst)


def _chunk_defect(grid: PropagatorGrid, k0: int, k1: int, iU: np.ndarray,
                  dt: float) -> float:
    """Max norm of the defect at the grid points k0 <= k < k1.

    The derivative term comes first and the central difference is added
    into it, so the scratch is the rows of k0 - 1 to k1 and one array of
    the same size, both released on return.
    """
    rows = grid.player_rows(k0 - 1, k1 + 1)
    defect = np.einsum("jat,ac->jct", rows[..., 1:-1], iU)
    defect *= -2.0 * dt
    defect += rows[..., 2:]
    defect -= rows[..., :-2]
    defect /= 2.0 * dt
    return np.abs(defect).max()


def ltp_residual(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Law-of-total-probability residual series for both players.

    Runs the scenario itself plus the four conditional scenarios with the
    sharp basis initial states phi_km, then returns (times, R) where
    R[:, j-1] = n_j(t) - sum_km |alpha_km|^2 n_j(t | started from phi_km).

    The residual vanishes identically for basis-state initial conditions
    and reproduces the interference part dmu_j for superpositions.

    The conditional runs' n comes from dynamics.conditional_stack(s), a
    (4, 2, nt) array: the first time s's run context asks for it, each
    conditional run is assembled in full with its run-time checks, and a
    NumericalError there keeps none of them.  The classical prediction is
    one product of the weights |alpha_km|^2 with that array, laid out as
    the run's n, and R is n minus it, in the prediction's own buffer.
    """
    series = decision_series(s)
    weights = np.abs(s.initial.amplitudes) ** 2
    R = (weights @ conditional_stack(s).reshape(4, -1)).reshape(2, -1).T
    np.subtract(series.n, R, out=R)
    return series.times, R
