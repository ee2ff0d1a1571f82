"""Two-mode fermionic representation on a 4-dimensional Hilbert space.

Each of two players holds a binary strategy.  The joint strategy space is
spanned by four basis vectors ordered as

    (phi_00, phi_10, phi_01, phi_11),

where phi_kl is the state with player 1 holding strategy k and player 2
holding strategy l.  The storage index of phi_kl is k + 2*l, so the
player-1 bit varies fastest.  With this convention an abstract tensor
product A (x) B of single-player operators (A on player 1, B on player 2)
is stored as numpy.kron(B, A).

Strategy transitions are generated by fermionic mode operators b1, b2
satisfying the canonical anticommutation relations (CAR)

    {b_k, b_l^dag} = delta_kl * 1,    {b_k, b_l} = 0.

The representation uses the Jordan-Wigner construction

    b1 = sm (x) I,    b2 = sz (x) sm,

with sm = [[0, 1], [0, 0]] and sz = diag(1, -1).  The parity factor sz on
the second mode is what makes the cross anticommutators vanish; the naive
product form I (x) sm commutes with b1 instead of anticommuting.  All
quantities built downstream (number operators, decision functions) are
insensitive to this choice of phase convention, but the CAR itself is not.

Number operators n_j = b_j^dag b_j are diagonal in the strategy basis and
read off the strategy bit of player j; their expectation values are the
decision functions of the model.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_mode_operators",
    "number_operators",
]

# single-player blocks; sm lowers the strategy bit, sz is the parity factor
_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def build_mode_operators() -> tuple[np.ndarray, np.ndarray]:
    """Return the Jordan-Wigner mode operators (b1, b2) as 4x4 matrices.

    The pair satisfies the CAR exactly: {b_k, b_l^dag} = delta_kl and
    {b_k, b_l} = 0 for k, l in {1, 2}.  In storage order (player-1 bit
    fastest) the abstract products sm (x) I and sz (x) sm become
    numpy.kron(I, sm) and numpy.kron(sm, sz).
    """
    b1 = np.kron(_I2, _SM)
    b2 = np.kron(_SM, _SZ)
    return b1, b2


def number_operators(b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the strategy number operators (n1, n2) with n_j = b_j^dag b_j.

    Both are orthogonal projectors of rank 2.  In the strategy basis
    n1 = diag(0, 1, 0, 1) and n2 = diag(0, 0, 1, 1), equivalently the sums
    of rank-1 projectors onto the basis states with the corresponding
    strategy bit set: n1 = |phi_10><phi_10| + |phi_11><phi_11| and
    n2 = |phi_01><phi_01| + |phi_11><phi_11|.
    """
    n1 = b1.conj().T @ b1
    n2 = b2.conj().T @ b2
    return n1, n2
