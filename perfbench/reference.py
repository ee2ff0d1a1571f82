"""Independent reference solution for the benchmark's output checks.

Nothing here imports qduet.  The generator U is assembled from the entry
pattern documented in the model module,

    nu_j = i omega_j + pi lambda_j^2 / Omega_j,
    U = [[ i nu1,   -mu_ex,   0,           -mu_coop    ],
         [-mu_ex,    i nu2,   mu_coop,      0          ],
         [ 0,        mu_coop, i conj(nu1),  mu_ex      ],
         [-mu_coop,  0,       mu_ex,        i conj(nu2)]],

the propagator is V(t) = expm(i U t) evaluated point by point, and the
decision functions are the quadratic form

    n_j(t) = sum_kl conj(V_jk(t)) V_jl(t) <psi| B_k^dag B_l |psi> + nB_j(t)

over B = (b1, b2, b1^dag, b2^dag) built here by Jordan-Wigner.  The
diagonal terms k = l are the direct part mu_j, the others the
interference part dmu_j.  The bath part nB_j is the running integral of
its documented integrand, done by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm

# documented triggers of the propagator fallback: cond(P) above COND_LIMIT,
# or P P^-1 (the eigen route's V(0)) missing the identity by IDENTITY_TOL
COND_LIMIT = 1e8
IDENTITY_TOL = 1e-12
# sample points per player at which outputs are compared with the reference
N_SAMPLES = 41


@dataclass(frozen=True)
class Reference:
    """Reference values at grid indices `idx` (times t = idx * dt)."""

    idx: np.ndarray
    times: np.ndarray
    mu: np.ndarray      # (len(idx), 2)
    dmu: np.ndarray
    nB: np.ndarray
    route: str

    @property
    def n(self) -> np.ndarray:
        return self.mu + self.dmu + self.nB


def generator(d: dict) -> np.ndarray:
    """U from the plain scenario parameters (keys as in the JSON form)."""
    nu = [1j * d[f"omega{j}"] + math.pi * d[f"lambda{j}"] ** 2 / d[f"Omega{j}"]
          for j in (1, 2)]
    mx, mc = d["mu_ex"], d["mu_coop"]
    return np.array([
        [1j * nu[0], -mx, 0.0, -mc],
        [-mx, 1j * nu[1], mc, 0.0],
        [0.0, mc, 1j * np.conj(nu[0]), mx],
        [-mc, 0.0, mx, 1j * np.conj(nu[1])],
    ], dtype=complex)


def _mode_operators() -> list[np.ndarray]:
    """(b1, b2, b1^dag, b2^dag) on the basis (phi_00, phi_10, phi_01, phi_11)."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    parity = np.diag([1.0, -1.0])
    b1 = np.kron(np.eye(2), lower)
    b2 = np.kron(lower, parity)
    return [b1, b2, b1.T, b2.T]


def amplitudes(d: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in d["alpha"]])


def moments(alpha: np.ndarray) -> np.ndarray:
    """G_kl = <psi| B_k^dag B_l |psi> for the initial state psi = alpha."""
    B = _mode_operators()
    return np.array([[np.vdot(Bk @ alpha, Bl @ alpha) for Bl in B] for Bk in B])


def route(U: np.ndarray) -> str:
    """Propagator route the program should report for generator U."""
    try:
        _, P = np.linalg.eig(U)
        if np.linalg.cond(P) <= COND_LIMIT:
            if np.abs(P @ np.linalg.inv(P) - np.eye(4)).max() <= IDENTITY_TOL:
                return "eigendecomposition"
    except np.linalg.LinAlgError:
        pass
    return "fallback"


def sample_indices(nt: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, nt - 1, N_SAMPLES)).astype(int))


class Propagation:
    """V(t) and nB(t) at the sample times of one parameter set.

    Both depend only on the parameters, the bath occupations and the grid,
    so one instance serves every initial state of a sweep.
    """

    def __init__(self, d: dict):
        self.U = generator(d)
        self.dt = d["dt"]
        self.nt = int(round(d["t_max"] / d["dt"])) + 1
        self.idx = sample_indices(self.nt)
        self.times = self.idx * self.dt
        self.V = np.stack([expm(1j * self.U * t) for t in self.times])
        self.route = route(self.U)
        self.nB = self._bath(d)

    def _bath(self, d: dict) -> np.ndarray:
        k = [d[f"lambda{j}"] ** 2 / d[f"Omega{j}"] for j in (1, 2)]
        N = [d["N1"], d["N2"]]
        # integrand weights on |V_j1|^2, |V_j2|^2, |V_j3|^2, |V_j4|^2
        w = 2.0 * np.pi * np.array([k[0] * N[0], k[1] * N[1],
                                    k[0] * (1.0 - N[0]), k[1] * (1.0 - N[1])])
        U = self.U

        def integrand(s: float) -> np.ndarray:
            V = expm(1j * U * s)
            return (np.abs(V[:2]) ** 2) @ w

        # fastest rate in U bounds the oscillation period; piece length a
        # fraction of it keeps each adaptive piece cheap
        rate = max(np.abs(np.linalg.eigvals(U)).max(), 1.0)
        nB = np.zeros((len(self.times), 2))
        for i in range(1, len(self.times)):
            a, b = self.times[i - 1], self.times[i]
            pieces = max(1, int(math.ceil((b - a) * rate / math.pi)))
            edges = np.linspace(a, b, pieces + 1)
            acc = np.zeros(2)
            for lo, hi in zip(edges[:-1], edges[1:]):
                val, _ = quad_vec(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12)
                acc += val
            nB[i] = nB[i - 1] + acc
        return nB

    def reference(self, d: dict) -> Reference:
        """Reference components for the initial state of scenario `d`."""
        G = moments(amplitudes(d))
        V = self.V[:, :2, :]                       # rows of players 1 and 2
        full = np.einsum("tjk,kl,tjl->tj", V.conj(), G, V).real
        mu = np.einsum("tjk,k,tjk->tj", V.conj(), np.diag(G), V).real
        return Reference(idx=self.idx, times=self.times, mu=mu, dmu=full - mu,
                         nB=self.nB, route=self.route)
