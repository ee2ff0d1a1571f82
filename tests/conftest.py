"""Shared fixtures and strategies for the test suite."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

from qduet import dynamics
from qduet.dynamics import decision_series
from qduet.model import PRESETS


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
