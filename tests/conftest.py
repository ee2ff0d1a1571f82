"""Shared fixtures and strategies for the test suite."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from qduet import dynamics
from qduet.dynamics import decision_series
from qduet.model import PRESETS

EPS = np.finfo(float).eps


def empty_slots():
    """Drop the kept run context: grid, nB, series and conditional runs."""
    dynamics._context_slot.clear()


@pytest.fixture(autouse=True)
def clear_slots():
    """Start every test with no kept run context."""
    empty_slots()


def grid_rows(grid):
    """The player rows V(t_k)[:2] at every grid point, as a (2, 4, nt) array.

    Multiplied out of the grid's public stacks: row j of V(t_{qB+b}) is
    outer[j, :, q] @ inner[..., b].
    """
    rows = np.einsum("jaq,acb->jcqb", grid.outer, grid.inner)
    return rows.reshape(2, 4, -1)[..., :len(grid.times)]


def stack_bytes(grid):
    """The bytes of the grid's O(sqrt(nt)) arrays."""
    return (grid.outer.nbytes + grid.inner.nbytes + grid.outer_terms.nbytes
            + grid.inner_terms.nbytes)


def stack_error(U, grid):
    """The largest entry of either stack minus scipy's expm at its time."""
    B = grid.inner.shape[-1]
    return max(
        max(np.abs(grid.outer[..., q] - expm(1j * U * grid.times[q * B])[:2]).max()
            for q in range(grid.outer.shape[-1])),
        max(np.abs(grid.inner[..., b] - expm(1j * U * grid.times[b])).max()
            for b in range(B)))


def build_basis():
    """Return the orthonormal strategy basis (phi_00, phi_10, phi_01, phi_11).

    phi_00 is the joint vacuum, annihilated by both mode operators; the
    other vectors are built from it by the creation operators,
    phi_10 = b1^dag phi_00, phi_01 = b2^dag phi_00 and
    phi_11 = b1^dag b2^dag phi_00 (the sign of phi_11 is fixed by this
    ordering of the creation operators).
    """
    eye = np.eye(4, dtype=complex)
    return eye[0], eye[1], eye[2], eye[3]


def car_residual(ops):
    """Maximum deviation of the operator pair from the CAR.

    For every ordered pair (k, l) over the given operators, computes
    {b_k, b_l^dag} - delta_kl * 1 and {b_k, b_l} and returns the largest
    absolute entry over all of them.  Zero (to rounding) certifies a valid
    fermionic pair; an O(1) value pinpoints which defining relation fails.
    """
    ops = [np.asarray(op, dtype=complex) for op in ops]
    dim = ops[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    worst = 0.0
    for k, bk in enumerate(ops):
        for l, bl in enumerate(ops):
            mixed = bk @ bl.conj().T + bl.conj().T @ bk - (eye if k == l else 0.0)
            plain = bk @ bl + bl @ bk
            worst = max(worst, np.abs(mixed).max(), np.abs(plain).max())
    return float(worst)


def count_calls(monkeypatch, *names):
    """Count the calls of the named dynamics functions, by name, each from 0."""
    counts = Counter(dict.fromkeys(names, 0))
    for name in names:
        def counting(*args, _name=name, _original=getattr(dynamics, name),
                     **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counting)
    return counts


@st.composite
def amplitude_vectors(draw):
    """Normalized complex 4-vectors with no dominant rounding pathology."""
    comps = [draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(8)]
    vec = np.array(comps[:4]) + 1j * np.array(comps[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = vec + (1.0 + 0.5j)
        norm = np.linalg.norm(vec)
    return vec / norm


@pytest.fixture(scope="session")
def fig1_left():
    return decision_series(PRESETS["fig1-left"])


@pytest.fixture(scope="session")
def fig1_right():
    return decision_series(PRESETS["fig1-right"])


@pytest.fixture(scope="session")
def fig6_left():
    return decision_series(PRESETS["fig6-left"])


@pytest.fixture(scope="session")
def fig6_right():
    return decision_series(PRESETS["fig6-right"])


def pytest_terminal_summary(terminalreporter):
    """Re-print the acceptance criterion verdict lines after the test run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
