"""Shared fixtures and strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from qduet import dynamics, oracle
from qduet.dynamics import decision_series
from qduet.model import PRESETS


def kept_slots():
    """Every `_*_slot` dict that dynamics and oracle define."""
    return [value for module in (dynamics, oracle)
            for name, value in vars(module).items()
            if name.startswith("_") and name.endswith("_slot")
            and isinstance(value, dict)]


def empty_slots():
    """Drop everything the modules keep: grid, series, conditional runs."""
    for slot in kept_slots():
        slot.clear()


@pytest.fixture(autouse=True)
def clear_slots():
    """Start every test with no kept grid, series or conditional runs."""
    empty_slots()


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
