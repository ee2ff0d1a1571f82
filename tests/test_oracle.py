"""Independent verification paths: closed evolution, ODE defect, LTP."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_slots
from test_dynamics import exceptional_params
from qduet import dynamics, oracle
from qduet.dynamics import (
    NumericalError,
    bath_contribution,
    decision_series,
    make_times,
    propagator,
)
from qduet.model import (
    InitialState,
    ModelParams,
    PRESETS,
    ReservoirState,
    Scenario,
    build_generator,
)
from qduet.oracle import (
    closed_hamiltonian,
    exact_closed_evolution,
    ltp_residual,
    propagator_residual,
)


def closed_params(**kw):
    base = dict(omega1=1.0, omega2=2.0, Omega1=1.0, Omega2=1.0,
                lambda1=0.0, lambda2=0.0, mu_ex=0.0, mu_coop=0.0)
    base.update(kw)
    return ModelParams(**base)


def test_closed_hamiltonian_matrix():
    H = closed_hamiltonian(closed_params(omega1=1.3, omega2=0.7,
                                         mu_ex=0.9, mu_coop=0.4))
    expected = np.array([
        [0.0, 0.0, 0.0, 0.4],
        [0.0, 1.3, 0.9, 0.0],
        [0.0, 0.9, 0.7, 0.0],
        [0.4, 0.0, 0.0, 2.0],
    ])
    assert np.abs(H - expected).max() <= 1e-14
    assert np.abs(H - H.conj().T).max() <= 1e-12


def test_closed_evolution_requires_zero_coupling():
    with pytest.raises(ValueError):
        exact_closed_evolution(closed_params(lambda1=0.5),
                               InitialState.basis_state(0, 0),
                               make_times(1.0, 0.1))


def test_closed_evolution_eigenstate_is_stationary():
    times = make_times(5.0, 0.01)
    n1, n2 = exact_closed_evolution(closed_params(),
                                    InitialState.basis_state(1, 0), times)
    assert np.abs(n1 - 1.0).max() <= 1e-12
    assert np.abs(n2).max() <= 1e-12


def test_closed_evolution_rabi_oscillation():
    mu = 1.7
    times = make_times(5.0, 0.01)
    n1, n2 = exact_closed_evolution(
        closed_params(omega1=0.0, omega2=0.0, mu_ex=mu),
        InitialState.basis_state(1, 0), times)
    assert np.abs(n1 - np.cos(mu * times) ** 2).max() <= 1e-12
    assert np.abs(n2 - np.sin(mu * times) ** 2).max() <= 1e-12


def test_closed_evolution_conservation_laws():
    rng = np.random.default_rng(7)
    times = make_times(5.0, 0.05)
    b_parity = np.diag([1.0, -1.0, -1.0, 1.0])
    for _ in range(5):
        params = closed_params(omega1=rng.uniform(-2, 2),
                               omega2=rng.uniform(-2, 2),
                               mu_ex=rng.uniform(-3, 3),
                               mu_coop=rng.uniform(-3, 3))
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        initial = InitialState.from_amplitudes(vec)
        H = closed_hamiltonian(params)
        energies, Q = np.linalg.eigh(H)
        coeffs = Q.conj().T @ vec
        psi = (Q @ (np.exp(-1j * np.outer(times, energies)) * coeffs).T).T
        norms = np.linalg.norm(psi, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        energy = np.einsum("ti,ij,tj->t", psi.conj(), H, psi).real
        assert np.abs(energy - energy[0]).max() <= 1e-10
        parity = np.einsum("ti,ij,tj->t", psi.conj(), b_parity, psi).real
        assert np.abs(parity - parity[0]).max() <= 1e-10
        if params.mu_coop == 0.0:
            n1, n2 = exact_closed_evolution(params, initial, times)
            assert np.abs((n1 + n2) - (n1[0] + n2[0])).max() <= 1e-10


def test_total_excitation_conserved_without_cooperation():
    params = closed_params(mu_ex=2.3, mu_coop=0.0)
    times = make_times(5.0, 0.01)
    vec = np.array([0.5, 0.5j, -0.5, 0.5])
    n1, n2 = exact_closed_evolution(params, InitialState.from_amplitudes(vec), times)
    assert np.abs((n1 + n2) - (n1[0] + n2[0])).max() <= 1e-10


def test_propagator_residual_free_case_matches_taylor_bound():
    # for diagonal U the defect is the central-difference error of scalar
    # exponentials, (omega_max dt)^2 omega_max / 6 to leading order
    w2, dt = 2.0, 1e-4
    U = build_generator(closed_params(omega1=1.0, omega2=w2))
    grid = propagator(U, make_times(0.5, dt))
    residual = propagator_residual(U, grid)
    predicted = w2 ** 3 * dt ** 2 / 6.0
    assert residual == pytest.approx(predicted, rel=0.05)


def test_propagator_residual_second_order_in_dt():
    U = build_generator(ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1,
                                      Omega2=0.1, lambda1=0.5, lambda2=0.5,
                                      mu_ex=500.0, mu_coop=0.0))
    residuals = []
    for dt in (2e-4, 1e-4):
        grid = propagator(U, make_times(0.1, dt))
        residuals.append(propagator_residual(U, grid))
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5


def test_propagator_residual_smooth_regime_bound():
    U = build_generator(ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1,
                                      Omega2=0.1, lambda1=0.5, lambda2=0.5,
                                      mu_ex=500.0, mu_coop=0.0))
    grid = propagator(U, make_times(0.1, 1e-4))
    residual = propagator_residual(U, grid)
    bound = 1e-5 * np.linalg.norm(U, 2) ** 2 * np.abs(grid.V).max()
    assert residual <= bound


def test_propagator_residual_needs_three_points():
    U = build_generator(closed_params())
    grid = propagator(U, make_times(0.1, 0.1))
    with pytest.raises(ValueError):
        propagator_residual(U, grid)


def base_scenario(initial, label="ltp"):
    params = ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                         lambda1=0.5, lambda2=0.5, mu_ex=5.0, mu_coop=2.0)
    return Scenario(params=params, reservoir=ReservoirState(0.0, 1.0),
                    initial=initial, t_max=1.0, dt=1e-3, label=label)


def test_ltp_residual_vanishes_for_basis_states():
    for l in (0, 1):
        for k in (0, 1):
            s = base_scenario(InitialState.basis_state(k, l), label=f"basis{k}{l}")
            _, R = ltp_residual(s)
            assert np.abs(R).max() <= 1e-12


def test_ltp_residual_equals_interference_part():
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))
    times, R = ltp_residual(s)
    series = decision_series(s)
    assert np.array_equal(times, series.times)
    assert np.abs(R - series.dmu).max() <= 1e-10


def test_ltp_residual_equals_interference_part_at_exceptional_point():
    # the conditional runs share the fallback-route grid of the full run
    s = Scenario(params=exceptional_params(), reservoir=ReservoirState(0.3, 0.8),
                 initial=InitialState(0.5j, -0.5j, 0.5, -0.5), t_max=5.0,
                 dt=1e-3, label="ep")
    assert propagator(build_generator(s.params),
                      make_times(s.t_max, s.dt)).used_fallback
    _, R = ltp_residual(s)
    dmu = decision_series(s).dmu
    assert np.abs(dmu).max() > 1e-3
    assert np.abs(R - dmu).max() <= 1e-12


def test_ltp_residual_oscillates_for_phased_superposition():
    s = dataclasses.replace(PRESETS["fig1-right"], t_max=0.05, label="fig1r-short")
    _, R = ltp_residual(s)
    assert R.min() < -0.01
    assert R.max() > 0.01
    sign_changes = np.count_nonzero(np.diff(np.sign(R[:, 0])) != 0)
    assert sign_changes > 10


def test_phase_sweep_builds_one_grid(monkeypatch):
    # every step shares params, t_max and dt; only the initial state moves.
    # Each step assembles its own run once (ltp_residual reuses it), and
    # the four conditional runs are assembled on the first step only.
    builds, assemblies = [], []

    def counting(*args):
        builds.append(1)
        return propagator(*args)

    def counting_bath(*args):
        assemblies.append(1)
        return bath_contribution(*args)

    monkeypatch.setattr(dynamics, "propagator", counting)
    monkeypatch.setattr(dynamics, "bath_contribution", counting_bath)
    base = dataclasses.replace(PRESETS["fig1-left"], t_max=0.05)
    for theta in np.linspace(0.0, np.pi / 2, 4):
        phase = np.exp(1j * theta)
        s = dataclasses.replace(base, initial=InitialState.from_amplitudes(
            [0.5 * phase, -0.5 * phase, 0.5, -0.5]))
        decision_series(s)
        ltp_residual(s)
    assert (len(builds), len(assemblies)) == (1, 8)


# scenarios that differ from SLOT_BASE in one field each, the label included
SLOT_BASE = dataclasses.replace(
    base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5)), t_max=0.05, dt=2e-3)
SLOT_POOL = [SLOT_BASE] + [dataclasses.replace(SLOT_BASE, **change) for change in (
    {"initial": InitialState(0.5, 0.5, 0.5, 0.5)},
    {"initial": InitialState.basis_state(1, 0)},
    {"reservoir": ReservoirState(1.0, 0.3)},
    {"params": dataclasses.replace(SLOT_BASE.params, mu_ex=3.0)},
    {"t_max": 0.04},
    {"dt": 1e-3},
    {"label": "relabelled"},
)]


def _slot_call(op, s):
    if op == "series":
        series = decision_series(s)
        assert series.scenario is s
        for values in (series.mu, series.dmu, series.nB, series.n):
            with pytest.raises(ValueError):
                values[0, 0] = 0.5
        return series.times, series.mu, series.dmu, series.nB, series.n
    return ltp_residual(s)


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(st.tuples(st.sampled_from(["series", "ltp"]),
                                st.integers(0, len(SLOT_POOL) - 1)),
                      min_size=1, max_size=10))
def test_kept_runs_match_fresh_runs(calls):
    # any interleaving of runs and LTP residuals returns what the same call
    # returns with nothing kept
    fresh = {}
    for op, i in set(calls):
        empty_slots()
        fresh[op, i] = _slot_call(op, SLOT_POOL[i])
    empty_slots()
    for op, i in calls:
        result = _slot_call(op, SLOT_POOL[i])
        assert all(np.array_equal(a, b) for a, b in zip(result, fresh[op, i]))
        for slot in (dynamics._grid_slot, dynamics._series_slot,
                     oracle._conditional_slot):
            assert len(slot) <= 1
        for kept in oracle._conditional_slot.values():
            assert len(kept) == 4
            assert not any(n.flags.writeable for n in kept)


def test_failed_conditional_run_keeps_nothing(monkeypatch):
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))
    _, expected = ltp_residual(s)
    empty_slots()
    decision_series(s)  # kept, so the first attempt fails in a conditional run
    assemblies = []

    def every_second_fails(*args):
        assemblies.append(1)
        if len(assemblies) % 2 == 0:
            raise NumericalError("injected failure")
        return bath_contribution(*args)

    monkeypatch.setattr(dynamics, "bath_contribution", every_second_fails)
    # attempt 1: phi00 assembles, phi10 fails; attempt 2: the run itself
    # assembles again (the failed run emptied the series slot), phi00 fails
    for attempt in (1, 2):
        with pytest.raises(NumericalError, match="injected failure"):
            ltp_residual(s)
        assert len(assemblies) == 2 * attempt
        assert oracle._conditional_slot == {}
    monkeypatch.undo()
    _, R = ltp_residual(s)
    assert np.array_equal(R, expected)

