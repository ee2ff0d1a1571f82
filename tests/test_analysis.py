"""Decision analysis: odds, decision time, asymptotics, noise."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduet.analysis import (
    _window_spans,
    asymptotics,
    decision_time,
    noise_metric,
    odds,
)
from qduet.dynamics import DecisionSeries, decision_series, make_times
from qduet.model import (
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


def test_asymptotics_constant_series():
    series = synthetic(np.full(100, 0.42), np.full(100, 0.13))
    report = asymptotics(series, tail_fraction=0.2)
    assert report.mean == pytest.approx((0.42, 0.13), abs=1e-15)
    assert report.fluctuation == pytest.approx((0.0, 0.0), abs=1e-15)
    assert report.converged == (True, True)


def test_asymptotics_decoupled_limit():
    # bath relaxation drives the decision function to the occupation N1
    params = ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                         lambda1=0.5, lambda2=0.0, mu_ex=0.0, mu_coop=0.0)
    s = Scenario(params=params, reservoir=ReservoirState(0.75, 0.0),
                 initial=InitialState.basis_state(1, 0),
                 t_max=round(10.0 / params.gamma1, 4), dt=1e-4, label="relax")
    report = asymptotics(decision_series(s), tail_fraction=0.1)
    assert report.mean[0] == pytest.approx(0.75, abs=1e-3)
    assert report.converged[0]


def test_asymptotics_mean_reversal_invariant():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=500)
    series = synthetic(values, values[::-1])
    fwd = asymptotics(series, tail_fraction=1.0 - 1e-9)
    rev = asymptotics(synthetic(values[::-1], values), tail_fraction=1.0 - 1e-9)
    assert fwd.mean[0] == pytest.approx(rev.mean[0], abs=1e-12)


def test_asymptotics_tail_fraction_validation():
    series = synthetic(np.full(10, 0.5), np.full(10, 0.5))
    with pytest.raises(ValueError):
        asymptotics(series, tail_fraction=0.0)
    with pytest.raises(ValueError):
        asymptotics(series, tail_fraction=1.5)


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
