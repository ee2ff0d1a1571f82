"""Propagator and decision-function assembly."""

import dataclasses
import math
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import amplitude_vectors
import qduet
from qduet import dynamics
from qduet.dynamics import (
    DecisionSeries,
    bath_contribution,
    decision_series,
    delta_mu,
    make_times,
    mu_player,
    propagator,
    scenario_grid,
)
from qduet.model import (
    PRESETS,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    born_probabilities,
    build_generator,
)


def make_params(**kw):
    base = dict(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                lambda1=0.5, lambda2=0.5, mu_ex=0.0, mu_coop=0.0)
    base.update(kw)
    return ModelParams(**base)


def make_scenario(params, initial, N1=0.0, N2=0.0, t_max=1.0, dt=1e-3,
                  label="test"):
    return Scenario(params=params, reservoir=ReservoirState(N1, N2),
                    initial=initial, t_max=t_max, dt=dt, label=label)


def exceptional_params(detune=0.0, g1=2.0, g2=1.0, omega=1.0):
    # equal inertias with exchange balancing the damping mismatch put the
    # generator at an exceptional point; detune moves mu_ex off it
    return make_params(omega1=omega, omega2=omega, Omega1=1.0, Omega2=1.0,
                       lambda1=math.sqrt(g1 / math.pi),
                       lambda2=math.sqrt(g2 / math.pi),
                       mu_ex=abs(g1 - g2) / 2.0 + detune)


params_strategy = st.builds(
    make_params,
    omega1=st.floats(-3, 3), omega2=st.floats(-3, 3),
    Omega1=st.floats(0.1, 2.0), Omega2=st.floats(0.1, 2.0),
    lambda1=st.floats(0, 1.0), lambda2=st.floats(0, 1.0),
    mu_ex=st.floats(-3, 3), mu_coop=st.floats(-3, 3),
)


SHORT = dataclasses.replace(PRESETS["fig6-left"], t_max=0.05, label="short")


def test_scenario_grid_is_shared_and_read_only():
    series = decision_series(SHORT)
    grid = scenario_grid(dataclasses.replace(
        SHORT, initial=InitialState.basis_state(1, 0),
        reservoir=ReservoirState(1.0, 0.0), label="other"))
    assert grid.times is series.times
    with pytest.raises(ValueError):
        series.times[0] = 1.0
    with pytest.raises(ValueError):
        grid.V[0, 0, 0] = 0.0


@pytest.mark.parametrize("change", [
    dict(t_max=0.04), dict(dt=5e-5),
    dict(params=dataclasses.replace(SHORT.params, mu_ex=10.5)),
])
def test_scenario_grid_rebuilds_for_a_new_key(change):
    scenario_grid(SHORT)
    s = dataclasses.replace(SHORT, **change)
    grid = scenario_grid(s)
    fresh = propagator(build_generator(s.params), make_times(s.t_max, s.dt))
    assert grid.times.tobytes() == fresh.times.tobytes()
    assert grid.V.tobytes() == fresh.V.tobytes()
    assert grid.used_fallback == fresh.used_fallback


def test_scenario_grid_releases_the_old_grid_first(monkeypatch):
    old = weakref.ref(scenario_grid(SHORT))

    def checking(*args):
        assert old() is None
        return propagator(*args)

    monkeypatch.setattr(dynamics, "propagator", checking)
    scenario_grid(dataclasses.replace(SHORT, t_max=0.04))
    assert old() is None


def test_make_times():
    t = make_times(0.5, 1e-4)
    assert len(t) == 5001
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.5, abs=1e-12)


def test_propagator_identity_at_zero():
    U = build_generator(make_params(mu_ex=500.0))
    grid = propagator(U, make_times(0.01, 1e-4))
    assert np.abs(grid.V[0] - np.eye(4)).max() <= 1e-12
    assert not grid.used_fallback


def test_propagator_free_case_diagonal_phases():
    w1, w2 = 1.3, 0.7
    U = build_generator(make_params(omega1=w1, omega2=w2,
                                      lambda1=0.0, lambda2=0.0))
    times = make_times(2.0, 1e-2)
    grid = propagator(U, times)
    expected = np.zeros((len(times), 4, 4), dtype=complex)
    for k, w in enumerate((-w1, -w2, w1, w2)):
        expected[:, k, k] = np.exp(1j * w * times)
    assert np.abs(grid.V - expected).max() <= 1e-12


def test_propagator_decoupled_damping_magnitude():
    params = make_params(lambda2=0.0)
    gamma1 = params.gamma1
    times = make_times(1.0, 1e-3)
    grid = propagator(build_generator(params), times)
    assert np.abs(np.abs(grid.V[:, 0, 0]) - np.exp(-gamma1 * times)).max() <= 1e-12


def test_propagator_semigroup_on_stiff_preset():
    U = build_generator(ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1,
                                      Omega2=0.1, lambda1=0.5, lambda2=0.5,
                                      mu_ex=500.0, mu_coop=0.0))
    grid = propagator(U, make_times(0.5, 1e-4))
    for i, j in ((1234, 2345), (100, 4000), (2500, 2500)):
        dev = np.abs(grid.V[i] @ grid.V[j] - grid.V[i + j]).max()
        assert dev <= 1e-9


@given(params=params_strategy)
@settings(deadline=None, max_examples=30)
def test_propagator_semigroup_property(params):
    U = build_generator(params)
    grid = propagator(U, make_times(0.4, 1e-2))
    if not grid.used_fallback:
        # near eigenvalue coalescence the spectral route loses digits
        # before the fallback threshold; keep the property test away from
        # that regime, it is exercised separately
        assume(np.linalg.cond(np.linalg.eig(U)[1]) < 1e4)
    for i, j in ((3, 5), (10, 17), (20, 20)):
        assert np.abs(grid.V[i] @ grid.V[j] - grid.V[i + j]).max() <= 1e-9


def test_propagator_rejects_bad_grids():
    U = build_generator(make_params())
    with pytest.raises(ValueError):
        propagator(U, np.array([0.0]))
    with pytest.raises(ValueError):
        propagator(U, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        propagator(U, np.array([0.0, 0.1, 0.15]))


def test_propagator_fallback_on_defective_generator():
    # a nilpotent generator has a defective eigenvector matrix; the
    # fallback exponential is exact there: e^{iUt} = 1 + iUt
    U = np.zeros((4, 4), dtype=complex)
    U[0, 1] = 1.0
    times = make_times(1.0, 0.1)
    grid = propagator(U, times)
    assert grid.used_fallback
    expected = np.eye(4)[None, :, :] + 1j * U[None, :, :] * times[:, None, None]
    assert np.abs(grid.V - expected).max() <= 1e-12


def test_propagator_table_squares_large_steps():
    # nilpotent of degree 3 with dt ||U||_1 = 12.5: both factor stacks of
    # the table need 6 to 8 squarings; e^{iUt} = 1 + iUt - (Ut)^2 / 2
    U = np.zeros((4, 4), dtype=complex)
    U[0, 1] = U[1, 2] = 25.0
    times = make_times(10.0, 0.5)
    grid = propagator(U, times)
    assert grid.used_fallback
    iUt = 1j * U[None, :, :] * times[:, None, None]
    expected = np.eye(4) + iUt + iUt @ iUt / 2.0
    assert np.abs(grid.V - expected).max() <= 1e-12 * np.abs(expected).max()


exceptional_detunes = st.one_of(
    st.just(0.0),
    st.floats(-1e-3, 1e-3),
    st.builds(lambda sign, e: sign * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -3.0)),
)


@given(detune=exceptional_detunes, g1=st.floats(0.05, 3.0),
       g2=st.floats(0.05, 3.0), omega=st.floats(-2.0, 2.0),
       t_max=st.floats(0.5, 20.0))
@settings(deadline=None, max_examples=80)
def test_propagator_on_and_near_exceptional_points(detune, g1, g2, omega, t_max):
    U = build_generator(exceptional_params(detune, g1, g2, omega))
    times = make_times(t_max, t_max / 2000)
    grid = propagator(U, times)

    # the documented trigger: cond(P) > 1e8, or the eigen route's V(0)
    # missing the identity by more than 1e-12
    w, P = np.linalg.eig(np.asarray(U, dtype=complex))
    cond = np.linalg.cond(P)
    V0 = np.einsum("ab,tb,bc->tac", P, np.exp(1j * np.outer(times[:1], w)),
                   np.linalg.inv(P))[0]
    assert grid.used_fallback == (cond > 1e8 or np.abs(V0 - np.eye(4)).max() > 1e-12)

    # the eigen route rounds at the scale n eps cond(P), n = 4, which
    # passes 1e-12 once cond(P) exceeds ~1e3
    tol = 1e-12
    if not grid.used_fallback:
        tol = max(tol, 4 * np.finfo(float).eps * cond)
    for i in np.linspace(0, len(times) - 1, 20).astype(int):
        assert np.abs(grid.V[i] - expm(1j * U * times[i])).max() <= tol


def test_propagator_fallback_near_eigenvalue_coalescence():
    # at the exceptional point the eigenvector matrix condition number
    # blows up and either fallback trigger must fire
    grid = propagator(build_generator(exceptional_params()), make_times(1.0, 1e-2))
    assert grid.used_fallback
    assert np.abs(grid.V[0] - np.eye(4)).max() <= 1e-12


def test_mu_player_identity_propagator():
    eye = np.eye(4, dtype=complex)
    assert mu_player(eye, InitialState.basis_state(1, 0)) == pytest.approx((1.0, 0.0))
    a_half = InitialState(0.5, 0.5, 0.5, 0.5)
    assert mu_player(eye, a_half) == pytest.approx((0.5, 0.5))


def test_mu_player_decoupled_decay():
    params = make_params(lambda2=0.0)
    times = make_times(1.0, 1e-3)
    grid = propagator(build_generator(params), times)
    mu1, _ = mu_player(grid.V, InitialState.basis_state(1, 0))
    assert np.abs(mu1 - np.exp(-2.0 * params.gamma1 * times)).max() <= 1e-12


def test_delta_mu_zero_for_basis_states():
    grid = propagator(build_generator(make_params(mu_ex=2.0, mu_coop=1.0)),
                      make_times(1.0, 1e-2))
    for l in (0, 1):
        for k in (0, 1):
            d1, d2 = delta_mu(grid.V, InitialState.basis_state(k, l))
            assert np.abs(d1).max() == 0.0
            assert np.abs(d2).max() == 0.0


def test_delta_mu_zero_at_identity():
    d1, d2 = delta_mu(np.eye(4, dtype=complex), InitialState(0.5, 0.5, 0.5, 0.5))
    assert d1 == 0.0 and d2 == 0.0


def test_bath_contribution_zero_couplings():
    params = make_params(lambda1=0.0, lambda2=0.0)
    grid = propagator(build_generator(params), make_times(1.0, 1e-2))
    nB1, nB2 = bath_contribution(ReservoirState(1.0, 1.0), params, grid)
    assert np.abs(nB1).max() == 0.0
    assert np.abs(nB2).max() == 0.0


@pytest.mark.parametrize("N1", [0.0, 0.5, 1.0])
def test_bath_contribution_decoupled_closed_form(N1):
    params = make_params(lambda2=0.0)
    gamma1 = params.gamma1
    times = make_times(1.0, 1e-4)
    grid = propagator(build_generator(params), times)
    nB1, nB2 = bath_contribution(ReservoirState(N1, 0.7), params, grid)
    expected = N1 * (1.0 - np.exp(-2.0 * gamma1 * times))
    assert np.abs(nB1 - expected).max() <= 1e-12
    assert np.abs(nB2).max() == 0.0


@pytest.mark.parametrize("scenario", ["fig6-right", "exceptional-point"])
def test_bath_contribution_matches_block_exponential(scenario):
    # Van Loan: the top-right block F of expm([[A, D], [0, -A^dag]] t)
    # gives integral_0^t V D V^dag ds = F(t) expm(A^dag t); F grows like
    # exp(Gamma t), so the horizons stay short enough for 1e-12
    if scenario == "fig6-right":
        s = PRESETS["fig6-right"]
        params, reservoir, times = s.params, s.reservoir, make_times(s.t_max, s.dt)
    else:
        params, reservoir = exceptional_params(), ReservoirState(0.3, 0.8)
        times = make_times(2.0, 1e-3)
    grid = propagator(build_generator(params), times)
    assert grid.used_fallback == (scenario == "exceptional-point")
    nB1, nB2 = bath_contribution(reservoir, params, grid)

    A = 1j * build_generator(params)
    k1 = params.lambda1 ** 2 / params.Omega1
    k2 = params.lambda2 ** 2 / params.Omega2
    N1, N2 = reservoir.N1, reservoir.N2
    D = np.diag([k1 * N1, k2 * N2, k1 * (1.0 - N1), k2 * (1.0 - N2)])
    block = np.block([[A, D], [np.zeros((4, 4)), -A.conj().T]])
    for i in (1, len(times) // 3, len(times) - 1):
        t = times[i]
        Q = expm(block * t)[:4, 4:] @ expm(A.conj().T * t)
        assert abs(nB1[i] - 2.0 * np.pi * Q[0, 0].real) <= 1e-12
        assert abs(nB2[i] - 2.0 * np.pi * Q[1, 1].real) <= 1e-12


@pytest.mark.parametrize("detune", [0.0, 1e-6])
@pytest.mark.parametrize("N, k", [(1.0, 1), (0.0, 0)])
def test_saturated_state_stays_in_bounds_near_exceptional_point(detune, N, k):
    # both players start where their baths hold them (phi_11 against full
    # baths, phi_00 against empty ones); detune 0 takes the fallback
    # route, 1e-6 the eigen route at cond(P) ~ 1e3
    params = exceptional_params(detune)
    s = make_scenario(params, InitialState.basis_state(k, k), N1=N, N2=N,
                      t_max=5.0, dt=1e-3)
    series = decision_series(s)
    grid = propagator(build_generator(params), series.times)
    assert grid.used_fallback == (detune == 0.0)
    assert series.n.min() >= -1e-10 and series.n.max() <= 1.0 + 1e-10


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(qduet.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qduet; "
            f"import qduet.cli; print(sorted(m for m in sys.modules "
            f"if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_decision_series_free_case_constant():
    params = make_params(lambda1=0.0, lambda2=0.0)
    alpha = np.array([0.5, 0.5j, -0.5, 0.5j])
    s = make_scenario(params, InitialState.from_amplitudes(alpha))
    series = decision_series(s)
    assert np.abs(series.n - series.n[0]).max() <= 1e-12


def test_decision_series_decoupled_closed_form():
    params = make_params(lambda2=0.0)
    gamma1 = params.gamma1
    s = make_scenario(params, InitialState.basis_state(1, 0),
                      N1=0.5, N2=0.3, t_max=1.0, dt=1e-4)
    series = decision_series(s)
    expected = (np.exp(-2.0 * gamma1 * series.times)
                + 0.5 * (1.0 - np.exp(-2.0 * gamma1 * series.times)))
    assert np.abs(series.n[:, 0] - expected).max() <= 1e-12


def test_decision_series_initial_values():
    s = make_scenario(make_params(mu_ex=3.0), InitialState(0.5, 0.5j, -0.5, 0.5j),
                      N1=0.2, N2=0.9)
    series = decision_series(s)
    _, p1_1, _, p2_1 = born_probabilities(s.initial)
    assert abs(series.n[0, 0] - p1_1) <= 1e-10
    assert abs(series.n[0, 1] - p2_1) <= 1e-10
    assert np.abs(series.dmu[0]).max() <= 1e-15
    assert series.nB[0, 0] == 0.0 and series.nB[0, 1] == 0.0


def test_decision_series_components_sum_exactly():
    series = decision_series(make_scenario(make_params(mu_ex=2.0, mu_coop=1.0),
                                           InitialState(0.5, 0.5, 0.5, 0.5),
                                           N1=1.0))
    assert np.abs(series.n - (series.mu + series.dmu + series.nB)).max() == 0.0
    assert series.n1.shape == series.times.shape
    assert series.dt == pytest.approx(1e-3)


@given(alpha=amplitude_vectors())
@settings(deadline=None, max_examples=25)
def test_mu_linearity_in_probabilities(alpha):
    # the direct part obeys the classical mixture rule over basis states
    params = make_params(mu_ex=3.0, mu_coop=1.0, lambda1=0.4, lambda2=0.3,
                         Omega1=1.0, Omega2=1.0)
    grid = propagator(build_generator(params), make_times(0.5, 1e-2))
    weights = np.abs(alpha) ** 2
    mixed = np.zeros((len(grid.times), 2))
    for idx in range(4):
        k, l = idx % 2, idx // 2
        m1, m2 = mu_player(grid.V, InitialState.basis_state(k, l))
        mixed[:, 0] += weights[idx] * m1
        mixed[:, 1] += weights[idx] * m2
    m1, m2 = mu_player(grid.V, InitialState.from_amplitudes(alpha))
    assert np.abs(m1 - mixed[:, 0]).max() <= 1e-12
    assert np.abs(m2 - mixed[:, 1]).max() <= 1e-12
