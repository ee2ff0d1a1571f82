"""Decision analysis: odds, decision time, noise."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduet.analysis import (
    _window_spans,
    decision_time,
    noise_metric,
    odds,
)
from qduet.dynamics import DecisionSeries, decision_series, make_times
from qduet.model import (
    PRESETS,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
)


def synthetic(values1, values2, dt=1e-3):
    """Series with prescribed decision functions and no bath or interference."""
    values1 = np.asarray(values1, float)
    values2 = np.asarray(values2, float)
    n = np.column_stack([values1, values2])
    times = np.arange(len(values1)) * dt
    zeros = np.zeros_like(n)
    return DecisionSeries(times=times, mu=n, dmu=zeros, nB=zeros, n=n)


def test_odds_values():
    half = synthetic(np.full(101, 0.5), np.full(101, 0.8))
    o1, o2 = odds(half, 0.05)
    assert o1 == 1.0
    assert o2 == pytest.approx(4.0, abs=1e-12)


def test_odds_infinite_marker():
    series = synthetic(np.full(11, 1.0), np.full(11, 0.0))
    o1, o2 = odds(series, 0.0)
    assert o1 == math.inf
    assert o2 == 0.0


def test_odds_requires_grid_time():
    series = synthetic(np.full(11, 0.5), np.full(11, 0.5))
    with pytest.raises(ValueError):
        odds(series, 0.00037)


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
def test_odds_rejects_non_finite_time(t):
    series = synthetic(np.full(11, 0.5), np.full(11, 0.5))
    with pytest.raises(ValueError, match="not on the simulation grid"):
        odds(series, t)


@given(p=st.floats(0.0, 1.0 - 1e-9), q=st.floats(0.0, 1.0 - 1e-9))
@settings(deadline=None)
def test_odds_monotone_in_probability(p, q):
    lo, hi = sorted((p, q))
    series = synthetic([lo, lo], [hi, hi], dt=1.0)
    o_lo, o_hi = odds(series, 0.0)
    assert o_lo <= o_hi


def test_decision_time_constant_series():
    series = synthetic(np.full(101, 0.7), np.full(101, 0.3))
    o1, o2 = decision_time(series, epsilon=0.01)
    assert o1.tau == 0.0 and o2.tau == 0.0
    assert o1.decision == 1 and o2.decision == 0
    assert o1.odds_at_tau == pytest.approx(0.7 / 0.3, abs=1e-12)


def test_decision_time_exponential_window_rule():
    # n(t) = 1 - exp(-2 g t): over [t, t+W] the span is
    # exp(-2 g t)(1 - exp(-2 g W)), so the rule fires at
    # tau = ln((1 - exp(-2 g W)) / eps) / (2 g) with W the realized
    # window length on the grid
    g, dt, eps = 2.0, 1e-3, 0.01
    times = make_times(5.0, dt)
    values = 1.0 - np.exp(-2.0 * g * times)
    series = synthetic(values, values, dt=dt)
    window = 0.5
    w_eff = round(window / dt) * dt
    tau_exact = math.log((1.0 - math.exp(-2.0 * g * w_eff)) / eps) / (2.0 * g)
    o1, _ = decision_time(series, epsilon=eps, window=window)
    assert o1.tau == pytest.approx(tau_exact, abs=dt)
    assert o1.decision == 1


def test_decision_time_monotone_in_epsilon():
    g, dt = 2.0, 1e-3
    times = make_times(5.0, dt)
    values = 1.0 - np.exp(-2.0 * g * times)
    series = synthetic(values, values, dt=dt)
    taus = []
    for eps in (0.002, 0.01, 0.05):
        o1, _ = decision_time(series, epsilon=eps, window=0.5)
        taus.append(o1.tau)
    assert taus[0] >= taus[1] >= taus[2]


def test_decision_time_not_reached():
    times = make_times(1.0, 1e-3)
    values = 0.5 + 0.4 * np.cos(40.0 * times)
    series = synthetic(values, values, dt=1e-3)
    o1, o2 = decision_time(series, epsilon=0.01, window=0.2)
    assert o1.tau is None and o1.decision is None and o1.odds_at_tau is None
    assert o2.tau is None


def test_decision_time_random_coin_branch():
    series = synthetic(np.full(201, 0.5), np.full(201, 0.5))
    o1, o2 = decision_time(series, epsilon=0.01)
    assert o1.decision == "random-coin"
    assert o2.decision == "random-coin"


def test_decision_time_window_validation():
    series = synthetic(np.full(11, 0.5), np.full(11, 0.5))
    with pytest.raises(ValueError):
        decision_time(series, epsilon=0.01, window=1.0)
    with pytest.raises(ValueError):
        decision_time(series, epsilon=-1.0)
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            decision_time(series, epsilon=epsilon)
    for window in (-5.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="window"):
            decision_time(series, epsilon=0.01, window=window)


@st.composite
def series_and_length(draw):
    values = np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=300)))
    return values, draw(st.integers(1, len(values)))


@given(case=series_and_length())
@settings(deadline=None, max_examples=300)
def test_window_spans_equal_brute_force(case):
    values, length = case
    windows = np.lib.stride_tricks.sliding_window_view(values, length)
    assert np.array_equal(_window_spans(values, length),
                          windows.max(axis=1) - windows.min(axis=1))


@st.composite
def rule_cases(draw):
    # values off [0, 1], nan and repeats, so that stable tails and
    # unstable windows both occur
    entries = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.25, 0.2501, math.nan]))
    values = np.array(draw(st.lists(entries, min_size=2, max_size=200)))
    window = draw(st.integers(1, len(values) - 1))
    return values, window, draw(st.floats(1e-4, 2.0))


def brute_force_decision(values, length, epsilon):
    """(tau index, odds) from the rule's definition, window by window."""
    starts = range(len(values) - length + 1)
    stable = [bool(np.ptp(values[i:i + length]) < epsilon) for i in starts]  # nan: False
    for i in starts:
        if all(stable[i:]):
            p = min(max(float(values[i]), 0.0), 1.0)
            return i, (math.inf if 1.0 - p < 1e-12 else p / (1.0 - p))
    return None, None


@given(case=rule_cases())
@settings(deadline=None, max_examples=300)
def test_decision_time_equals_brute_force(case):
    values, window, epsilon = case
    dt = 1e-3
    series = synthetic(values, values[::-1], dt=dt)
    outcomes = decision_time(series, epsilon=epsilon, window=window * dt)
    for outcome, column in zip(outcomes, (values, values[::-1])):
        idx, odds_at_tau = brute_force_decision(column, window + 1, epsilon)
        if idx is None:
            assert outcome.tau is None and outcome.odds_at_tau is None
        else:
            assert outcome.tau == series.times[idx]
            assert outcome.odds_at_tau == odds_at_tau


def test_decision_time_is_linear_in_the_horizon():
    # default window = 10% of the run, i.e. 40000 samples; a rule that
    # scans every window costs nt * w = 1.6e10 comparisons here
    times = make_times(400.0, 1e-3)
    values = 0.5 + 0.4 * np.exp(-times) * np.cos(40.0 * times)
    series = synthetic(values, values[::-1], dt=1e-3)
    start = time.perf_counter()
    o1, o2 = decision_time(series, epsilon=0.01)
    assert time.perf_counter() - start < 2.0
    assert o1.tau is not None and o2.tau is None


def test_noise_metric_constant_is_zero():
    series = synthetic(np.full(101, 0.5), np.full(101, 0.5))
    assert noise_metric(series, (0.0, 0.1)) == (0.0, 0.0)


def test_noise_metric_known_sinusoid():
    times = make_times(1.0, 1e-4)
    values = 0.5 + 0.1 * np.sin(2 * math.pi * 50 * times)
    series = synthetic(values, values, dt=1e-4)
    s1, _ = noise_metric(series, (0.0, 1.0))
    assert s1 == pytest.approx(0.1 / math.sqrt(2), rel=1e-2)


def test_noise_metric_empty_window():
    series = synthetic(np.full(11, 0.5), np.full(11, 0.5), dt=1.0)
    with pytest.raises(ValueError):
        noise_metric(series, (100.0, 101.0))
    with pytest.raises(ValueError):
        noise_metric(series, (3.0, 2.0))


@pytest.mark.parametrize("window", [
    (0.05, 0.25),          # starts and ends on grid points
    (0.0503, 0.2507),      # starts and ends between points
    (-1.0, 0.0405),        # reaches across the first point
    (0.9, 2.0),            # reaches across the last point
    (0.1234, 0.12341),     # between points with none inside
    (0.5, 0.5),            # one point
    (1.5, 2.0),            # past the last point
    (math.nan, 0.5), (0.1, math.nan),
])
def test_noise_metric_equals_masked_std(window):
    # the window cut by binary search against the std of a boolean mask,
    # on a series whose columns differ; an empty window is a ValueError
    times = make_times(1.0, 1e-3)
    rng = np.random.default_rng(11)
    series = synthetic(rng.uniform(0.0, 1.0, times.size),
                       0.5 + 0.1 * np.sin(40.0 * times))
    t_a, t_b = window
    mask = (series.times >= t_a) & (series.times <= t_b)
    if not mask.any():
        with pytest.raises(ValueError, match="contains no grid points"):
            noise_metric(series, window)
        return
    expected = series.n[mask].std(axis=0)
    assert noise_metric(series, window) == pytest.approx(tuple(expected),
                                                         rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("source", ["run", "C-ordered"])
def test_noise_metric_matches_per_column_std_bits(source):
    # both players in one reduction over the window's contiguous rows give
    # the bits of each column's own std, on a run's series and on a
    # C-ordered (nt, 2) series
    series = decision_series(PRESETS["fig1-right"])
    if source == "C-ordered":
        series = dataclasses.replace(series, n=np.ascontiguousarray(series.n))
        assert series.n.flags.c_contiguous
    times = series.times
    rng = np.random.default_rng(22)
    windows = [(0.05, 0.25), (0.0, times[-1])] + [
        tuple(sorted(rng.uniform(0.0, times[-1], 2))) for _ in range(40)]
    for window in windows:
        k = np.flatnonzero((times >= window[0]) & (times <= window[1]))
        expected = tuple(float(series.n[k[0]:k[-1] + 1, j].std()) for j in (0, 1))
        assert noise_metric(series, window) == expected


def test_outcomes_invariant_under_global_phase():
    params = ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                         lambda1=0.5, lambda2=0.5, mu_ex=5.0, mu_coop=2.0)
    alpha = np.array([0.5j, -0.5j, 0.5, -0.5])
    outcomes = []
    for theta in (0.0, 1.234):
        s = Scenario(params=params, reservoir=ReservoirState(0.0, 1.0),
                     initial=InitialState.from_amplitudes(alpha * np.exp(1j * theta)),
                     t_max=1.0, dt=1e-3, label=f"phase{theta}")
        series = decision_series(s)
        outcomes.append(decision_time(series, epsilon=0.01))
    for a, b in zip(*outcomes):
        assert a.tau == pytest.approx(b.tau, abs=1e-3)
        assert a.decision == b.decision
