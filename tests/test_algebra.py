"""Operator algebra: basis, mode operators, CAR, number operators."""

import numpy as np

from conftest import build_basis, car_residual
from qduet.algebra import build_mode_operators, number_operators

TOL = 1e-14


def test_basis_vectors_are_standard_units():
    phi00, phi10, phi01, phi11 = build_basis()
    assert np.array_equal(phi00, [1, 0, 0, 0])
    assert np.array_equal(phi10, [0, 1, 0, 0])
    assert np.array_equal(phi01, [0, 0, 1, 0])
    assert np.array_equal(phi11, [0, 0, 0, 1])


def test_basis_orthonormal_all_pairs():
    basis = build_basis()
    for a, va in enumerate(basis):
        for b, vb in enumerate(basis):
            expected = 1.0 if a == b else 0.0
            assert abs(np.vdot(va, vb) - expected) <= TOL


def test_vacuum_annihilated_by_both_modes():
    phi00 = build_basis()[0]
    b1, b2 = build_mode_operators()
    assert np.abs(b1 @ phi00).max() <= TOL
    assert np.abs(b2 @ phi00).max() <= TOL


def test_mode_operator_matrices():
    b1, b2 = build_mode_operators()
    # player-1 lowering acts inside each l-block; player-2 lowering carries
    # the parity sign of the player-1 bit
    assert np.array_equal(b1, np.array([
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ], dtype=complex))
    assert np.array_equal(b2, np.array([
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ], dtype=complex))


def test_car_residual_zero_for_the_pair():
    assert car_residual(build_mode_operators()) <= TOL


def test_car_fails_without_parity_factor():
    # dropping the parity sign on the second mode makes the cross pair
    # commute instead of anticommute; the anticommutator {b1, b2} then has
    # an entry of size 2
    b1, _ = build_mode_operators()
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    b2_naive = np.kron(sm, np.eye(2, dtype=complex))
    residual = car_residual([b1, b2_naive])
    assert residual >= 1.0
    assert abs(residual - 2.0) <= TOL


def test_particle_hole_swapped_pair_still_satisfies_car():
    # replacing b1 by its adjoint relabels particle and hole on mode 1;
    # the swapped pair satisfies the same algebra, so the residual stays 0
    b1, b2 = build_mode_operators()
    assert car_residual([b1.conj().T, b2]) <= TOL


def test_number_operator_diagonals():
    n1, n2 = number_operators(*build_mode_operators())
    assert np.abs(n1 - np.diag([0.0, 1.0, 0.0, 1.0])).max() <= TOL
    assert np.abs(n2 - np.diag([0.0, 0.0, 1.0, 1.0])).max() <= TOL


def test_number_operators_are_rank2_projectors():
    for n in number_operators(*build_mode_operators()):
        assert np.abs(n @ n - n).max() <= TOL
        assert np.abs(n - n.conj().T).max() <= TOL
        assert abs(np.trace(n).real - 2.0) <= TOL


def test_spectral_decomposition_entrywise():
    phi00, phi10, phi01, phi11 = build_basis()
    n1, n2 = number_operators(*build_mode_operators())
    proj = lambda v: np.outer(v, v.conj())
    assert np.abs(n1 - (proj(phi10) + proj(phi11))).max() <= TOL
    assert np.abs(n2 - (proj(phi01) + proj(phi11))).max() <= TOL


def test_eigenvalue_labels_match_basis_bits():
    basis = build_basis()
    n1, n2 = number_operators(*build_mode_operators())
    for l in (0, 1):
        for k in (0, 1):
            phi = basis[k + 2 * l]
            assert np.abs(n1 @ phi - k * phi).max() <= TOL
            assert np.abs(n2 @ phi - l * phi).max() <= TOL


def test_creation_operators_build_the_basis():
    phi00, phi10, phi01, phi11 = build_basis()
    b1, b2 = build_mode_operators()
    assert np.abs(b1.conj().T @ phi00 - phi10).max() <= TOL
    assert np.abs(b2.conj().T @ phi00 - phi01).max() <= TOL
    # the double excitation is created with a plus sign in this convention
    assert np.abs(b1.conj().T @ b2.conj().T @ phi00 - phi11).max() <= TOL
