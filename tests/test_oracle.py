"""Independent verification paths: master equation, semigroup defect, LTP."""

import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    EPS,
    amplitude_vectors,
    count_calls,
    empty_slots,
    stack_bytes,
    stack_error,
)
from hard import (
    HARD,
    bath_well_posed,
    damped,
    eigen_cond,
    exceptional_params,
    hard_params,
    hard_reservoirs,
    near_exceptional_eigen_draws,
)
import qduet.cli  # noqa: F401  (scanned for slots with the package)
from qduet import dynamics, oracle
from qduet.dynamics import (
    NumericalError,
    decision_series,
    make_times,
    mu_player,
    propagator,
    stationary_limit,
)
from qduet.model import (
    _N_DIAG,
    RUN_BYTES_PER_POINT,
    InitialState,
    ModelParams,
    PRESETS,
    ReservoirState,
    Scenario,
    ScenarioError,
    build_generator,
    closed_hamiltonian,
)
from qduet.oracle import (
    _expm,
    _liouvillian,
    form_defect,
    ltp_residual,
    master_equation_n,
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


def closed_scenario(params, initial):
    """A bath-free run of t_max 5 at dt 0.01 from initial."""
    return Scenario(params=params, reservoir=ReservoirState(0.0, 0.0),
                    initial=initial, t_max=5.0, dt=0.01, label="closed")


def master_equation_every_point(s):
    """The master equation's n at every grid point, shape (nt, 2)."""
    return master_equation_n(s, np.arange(len(make_times(s.t_max, s.dt))))


def test_closed_evolution_eigenstate_is_stationary():
    n = master_equation_every_point(
        closed_scenario(closed_params(), InitialState.basis_state(1, 0)))
    assert np.abs(n[:, 0] - 1.0).max() <= 1e-12
    assert np.abs(n[:, 1]).max() <= 1e-12


def test_closed_evolution_rabi_oscillation():
    mu = 1.7
    times = make_times(5.0, 0.01)
    n = master_equation_every_point(closed_scenario(
        closed_params(omega1=0.0, omega2=0.0, mu_ex=mu),
        InitialState.basis_state(1, 0)))
    assert np.abs(n[:, 0] - np.cos(mu * times) ** 2).max() <= 1e-12
    assert np.abs(n[:, 1] - np.sin(mu * times) ** 2).max() <= 1e-12


def test_closed_evolution_conservation_laws():
    # at lambda = 0 the Liouvillian is -i[H, .]: the trace, the energy
    # Tr(rho H) and the parity Tr(rho P) stay put, and with mu_coop = 0 so
    # does n1 + n2
    rng = np.random.default_rng(7)
    b_parity = np.diag([1.0, -1.0, -1.0, 1.0])
    for _ in range(5):
        params = closed_params(omega1=rng.uniform(-2, 2),
                               omega2=rng.uniform(-2, 2),
                               mu_ex=rng.uniform(-3, 3),
                               mu_coop=rng.uniform(-3, 3))
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        s = closed_scenario(params, InitialState.from_amplitudes(vec))
        E = _expm(_liouvillian(s) * s.dt)
        rho = np.outer(vec, vec.conj()).reshape(16)
        # Tr(rho A) = vec(rho) . vec(A^T) for rho stacked by rows
        observables = np.stack([np.eye(4), closed_hamiltonian(params),
                                b_parity]).transpose(0, 2, 1).reshape(3, 16)
        values = []
        for _ in range(len(make_times(s.t_max, s.dt))):
            values.append((observables @ rho).real)
            rho = E @ rho
        norm, energy, parity = (np.array(values) - values[0]).T
        assert np.abs(norm).max() <= 1e-12
        assert np.abs(energy).max() <= 1e-10
        assert np.abs(parity).max() <= 1e-10
        n = master_equation_every_point(dataclasses.replace(
            s, params=dataclasses.replace(params, mu_coop=0.0)))
        assert np.abs(n.sum(axis=1) - n[0].sum()).max() <= 1e-10


def test_total_excitation_conserved_without_cooperation():
    vec = np.array([0.5, 0.5j, -0.5, 0.5])
    n = master_equation_every_point(closed_scenario(
        closed_params(mu_ex=2.3, mu_coop=0.0), InitialState.from_amplitudes(vec)))
    assert np.abs(n.sum(axis=1) - n[0].sum()).max() <= 1e-10


# dev <= ME_C eps max(1, ||L||_1 t_max), times cond(P) on the eigen route.
# Where ||L||_1 t_max is small the floor is the oracle's own stepping: its
# E = exp(L m dt) rounds at about 1 eps, and 20 steps add that up (seen
# against scipy's expm at each point).  Measured: at most 19.5 in 13000
# examples of the property and 52000 seeded draws, all at ||L||_1 t_max
# below 4; at most 1.33 on the presets, ep-1 and the cooperation point
ME_C = 32


def master_equation_deviation(s):
    """(max |n - n_ME| at the points --oracle samples, the bound's scale).

    The scale is eps max(1, ||L||_1 t_max), times cond(P) where the grid
    takes the eigen route, which rounds at eps cond(P).
    """
    norm = np.abs(_liouvillian(s)).sum(axis=0).max()
    scale = EPS * max(1.0, norm * s.t_max) * eigen_scale(dynamics.scenario_grid(s))
    return oracle.master_equation_deviation(s), scale


def drawn_scenario(params, reservoir, alpha, t_max):
    """A drawn run from alpha at dt = t_max / 2000."""
    return Scenario(params=params, reservoir=reservoir,
                    initial=InitialState.from_amplitudes(alpha), t_max=t_max,
                    dt=t_max / 2000, label="draw")


@given(params=hard_params(), reservoir=hard_reservoirs(), alpha=amplitude_vectors(),
       t_max=st.floats(0.5, 5.0))
@settings(deadline=None, max_examples=100)
def test_master_equation_deviation_is_rounding(params, reservoir, alpha, t_max):
    try:
        s = drawn_scenario(params, reservoir, alpha, t_max)
    except ScenarioError:  # too coarse a grid for the draw's rates
        reject()
    deviation, scale = master_equation_deviation(s)
    assert deviation <= ME_C * scale


@pytest.mark.parametrize("s", HARD, ids=lambda s: s.label)
def test_master_equation_deviation_on_presets_and_exceptional_points(s):
    # measured: 1.33 times the scale at most (fig6-left), 1.6e-13 at most
    # (fig3-left at t_max 20)
    deviation, scale = master_equation_deviation(s)
    assert deviation <= 2 * scale and deviation <= 1e-12


@pytest.mark.parametrize("family", ["exchange", "cooperation"])
def test_bath_premise_admits_every_exceptional_point(family):
    # the limit property draws both families, and its premise may reject
    # none of them (hard.bath_premise): the Lyapunov margin is
    # smallest at the corner Gamma = (0.05, 0.05), |omega| = 2, 0.025
    # (also the least of 20000 seeded draws), above BATH_MARGIN
    for g1, g2, omega, detune in itertools.product(
            [0.05, 3.0], [0.05, 3.0], [-2.0, 0.0, 2.0], [-1e-3, 0.0, 1e-3]):
        assert bath_well_posed(exceptional_params(detune, g1, g2, omega, family))


def test_master_equation_sees_a_scaled_bath_term(monkeypatch):
    # the bath term's D scaled by 1.01 passes the run-time checks on
    # fig6-left, and the deviation reads 6.9e-3
    diffusion = dynamics._diffusion
    monkeypatch.setattr(dynamics, "_diffusion", lambda *args: 1.01 * diffusion(*args))
    deviation, scale = master_equation_deviation(PRESETS["fig6-left"])
    assert deviation >= 1e-3 > 1e9 * ME_C * scale


@pytest.mark.parametrize("s", [s for s in HARD if damped(s.params)], ids=lambda s: s.label)
def test_liouvillian_null_vector_gives_the_limit(s):
    # the stationary rho of the master equation, of trace 1, against the
    # limit's Lyapunov solve: 2.2e-16 at most
    rho = np.linalg.svd(_liouvillian(s))[2][-1].conj().reshape(4, 4)
    n = (rho.diagonal() / rho.trace()).real @ np.transpose(_N_DIAG)
    assert np.abs(n - stationary_limit(s.params, s.reservoir)).max() <= 1e-15


def eigen_scale(grid):
    """cond(P) of the grid's generator on the eigen route, else 1."""
    if grid.used_fallback:
        return 1.0
    return max(1.0, eigen_cond(grid.generator))


def test_propagator_residual_free_case_is_rounding():
    # for diagonal U both stacks are scalar phases: 1.1 eps measured
    U = build_generator(closed_params(omega1=1.0, omega2=2.0))
    grid = propagator(U, 0.5, 1e-4)
    assert propagator_residual(grid) <= 4 * EPS


def test_propagator_residual_smooth_regime_bound():
    # the stiff exchange of mu_ex = 500: 15.3 and 13.6 eps measured
    U = build_generator(ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1,
                                    Omega2=0.1, lambda1=0.5, lambda2=0.5,
                                    mu_ex=500.0, mu_coop=0.0))
    for dt in (2e-4, 1e-4):
        grid = propagator(U, 0.1, dt)
        assert propagator_residual(grid) <= 32 * EPS * eigen_scale(grid)


@pytest.mark.parametrize("s", HARD, ids=lambda s: s.label)
def test_propagator_residual_is_rounding_on_presets_and_exceptional_points(s):
    # measured: 24.5 eps at most on the presets (fig1, fig2), 12.5 eps at
    # t_max 20, and 1.0 eps on the exceptional points' table route
    grid = dynamics.scenario_grid(s)
    assert propagator_residual(grid) <= 32 * EPS * eigen_scale(grid)


@pytest.mark.parametrize("stack", ["inner", "outer"])
def test_propagator_residual_sees_a_perturbed_stack(stack):
    # one entry of one matrix of either stack moved by 1e-12 moves the
    # defect by about that much
    grid = dynamics.scenario_grid(PRESETS["fig1-left"])
    values = getattr(grid, stack).copy()
    values[1, 2, values.shape[-1] // 2] += 1e-12
    perturbed = dataclasses.replace(grid, **{stack: values})
    assert propagator_residual(perturbed) - propagator_residual(grid) >= 5e-13


@pytest.mark.parametrize("s", HARD, ids=lambda s: s.label)
def test_form_defect_is_rounding_on_presets_and_exceptional_points(s):
    # measured: 0.25 eps at most (fig3), 0.094 eps on the exceptional
    # points' table route
    assert form_defect(dynamics.scenario_grid(s)) <= EPS


def test_form_defect_sees_a_perturbed_inner_term():
    # the inner term of Re W_00 and the last grid point's Re M_b[0, 0],
    # moved by 1e-9
    grid = dynamics.scenario_grid(PRESETS["fig1-left"])
    terms = grid.inner_terms.copy()
    terms[0, (len(grid.times) - 1) % grid.inner.shape[-1]] += 1e-9
    assert form_defect(dataclasses.replace(grid, inner_terms=terms)) > EPS


def test_propagator_residual_tracks_the_eigen_route_error_near_the_switch():
    # near an exceptional point the eigen route's stacks round at
    # eps cond(P): the defect reads that error, within a factor 4 of the
    # stacks' largest error against scipy's expm (0.70 to 1.54 times it
    # measured), and at most 2 eps cond(P) (0.82 measured), on draws at
    # cond(P) 117 to 795, just under the switch
    for s in near_exceptional_eigen_draws(8):
        U = build_generator(s.params)
        grid = propagator(U, s.t_max, s.dt)
        cond = eigen_cond(U)
        error = stack_error(U, grid)
        defect = propagator_residual(grid)
        assert not grid.used_fallback and cond > 100
        assert error / 4 <= defect <= 4 * error
        assert defect <= 2 * EPS * cond


def test_propagator_residual_keeps_no_V():
    # the defect reads the two stacks only: its scratch is about twice
    # their bytes (2.0 measured at nt = 50001 and 200001), with no term
    # in nt, and it keeps nothing once it returns
    for t_max, nt in ((5.0, 50001), (20.0, 200001)):
        grid = dynamics.scenario_grid(dataclasses.replace(PRESETS["fig3-left"],
                                                          t_max=t_max))
        assert len(grid.times) == nt
        tracemalloc.start()
        try:
            propagator_residual(grid)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 2 ** 12
        assert peak <= 3 * (grid.outer.nbytes + grid.inner.nbytes)


def test_propagator_residual_needs_two_points():
    # one step needs two points, the least a grid can be cut to
    grid = propagator(build_generator(closed_params()), 0.2, 0.1)
    assert propagator_residual(dataclasses.replace(grid, times=grid.times[:2])) <= 4 * EPS
    with pytest.raises(ValueError):
        propagator_residual(dataclasses.replace(grid, times=grid.times[:1]))


@pytest.mark.parametrize("n", [4, 16])
def test_oracle_expm_matches_scipy(n):
    # any square size: the 4x4 generator and a 16x16 Liouvillian alike,
    # from the zero matrix through norms that need squaring, and a
    # defective (nilpotent) matrix where exp is a finite sum
    rng = np.random.default_rng(n)
    assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))
    for scale in (1e-3, 1.0, 30.0):
        M = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        reference = expm(M)
        assert np.abs(_expm(M) - reference).max() <= 1e-12 * np.abs(reference).max()
    N = np.diag(np.full(n - 1, 3.0), 1)
    reference = sum(np.linalg.matrix_power(N, k) / math.factorial(k) for k in range(n))
    assert np.abs(_expm(N) - reference).max() <= 1e-14 * np.abs(reference).max()


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
            # the run and its own conditional run are the same bits
            assert not R.any()


def classical_mix_error(s):
    """max |R - (n - sum_km |alpha_km|^2 n_km)|, the sum written out term by term."""
    _, R = ltp_residual(s)
    expected = decision_series(s).n.copy()
    weights = np.abs(s.initial.amplitudes) ** 2
    for w, n in zip(weights, dynamics.conditional_stack(s)):
        expected -= w * n.T
    return np.abs(R - expected).max()


@pytest.mark.parametrize("s", HARD, ids=lambda s: s.label)
def test_ltp_residual_is_the_classical_mix_subtracted(s):
    # the one-product prediction against the sum written out term by term
    assert classical_mix_error(s) <= 4 * EPS


@given(params=hard_params(), reservoir=hard_reservoirs(), alpha=amplitude_vectors(),
       t_max=st.floats(0.5, 20.0))
@settings(deadline=None, max_examples=100)
def test_hard_draws_keep_the_contract(params, reservoir, alpha, t_max):
    """Aim 3's contract: a drawn scenario runs, and every oracle reads
    within its bound, or it fails with a ScenarioError or a NumericalError;
    any other exception fails the test.  Every HARD member meets each of
    these oracles, at its tighter member bound, above.

    An undamped run's phases round at eps |w| t, so on a long draw the
    members' fixed 32 eps cond(P) and 1 eps read up to 92.8 eps cond(P)
    and 2.5 eps.  The propagator defect keeps 32 eps cond(P) and gets
    twice the master equation's scale, eps max(1, ||L||_1 t_max) cond(P),
    where that is larger; the form defect gets 4 times that scale.  In
    3000 seeded draws the propagator defect read at most 0.78 of
    max(32 eps cond(P), scale), the form defect 2.5 times the scale.
    """
    try:
        s = drawn_scenario(params, reservoir, alpha, t_max)
        decision_series(s)
        grid = dynamics.scenario_grid(s)
        deviation, scale = master_equation_deviation(s)
        assert deviation <= ME_C * scale
        assert propagator_residual(grid) <= max(32 * EPS * eigen_scale(grid), 2 * scale)
        assert form_defect(grid) <= 4 * scale
        assert classical_mix_error(s) <= 4 * EPS
    except (ScenarioError, NumericalError):
        pass


BASES = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_conditional_runs_are_views_of_one_kept_array(monkeypatch):
    # four read-only (nt, 2) views of one (4, 2, nt) array, in the memory
    # order of a run's n, each the bits of the full run from its basis
    # state; a sharp state's dmu is +0.0, so no interference form is built
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))
    series = decision_series(s)
    counts = count_calls(monkeypatch, "mu_player", "delta_mu")
    stack = dynamics.conditional_stack(s)
    nt = len(series.times)
    assert counts == {"mu_player": 4, "delta_mu": 0}
    assert stack is _kept_context().conditional_n
    assert stack.shape == (4, 2, nt) and stack.flags.c_contiguous
    assert not stack.flags.writeable
    assert dynamics.conditional_stack(s) is stack
    runs = [n.T for n in stack]
    for n in runs:
        assert n.base is stack and not n.flags.writeable
        assert n.shape == (nt, 2) and n.strides == series.n.strides
    assert counts == {"mu_player": 4, "delta_mu": 0}
    monkeypatch.undo()
    for n, (k, l) in zip(runs, BASES):
        run = decision_series(dataclasses.replace(
            s, initial=InitialState.basis_state(k, l)))
        assert n.tobytes() == run.n.tobytes()


@pytest.mark.parametrize("s", HARD, ids=lambda s: s.label)
def test_conditional_runs_are_the_runs_from_basis_states(s):
    # mu + nB in each slot is, bit for bit, the n of the full run
    # mu + dmu + nB from that basis state, on every hard member
    for n, (k, l) in zip(dynamics.conditional_stack(s), BASES):
        run = decision_series(dataclasses.replace(
            s, initial=InitialState.basis_state(k, l)))
        assert n.T.tobytes() == run.n.tobytes()


def test_conditional_stack_builds_without_delta_mu(monkeypatch):
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))

    def no_interference_form(*args):
        raise AssertionError("delta_mu called for a conditional run")

    monkeypatch.setattr(dynamics, "delta_mu", no_interference_form)
    stack = dynamics.conditional_stack(s)
    monkeypatch.undo()
    assert dynamics.conditional_stack(s) is stack


def test_failed_conditional_check_names_its_run(monkeypatch):
    # the run-time checks see each conditional n under "<label>|phi<k><l>"
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5), label="mixed")
    calls = []

    def third_run_starts_off(grid, initial):
        calls.append(1)
        mu = mu_player(grid, initial)
        return mu + 0.5 if len(calls) == 3 else mu

    monkeypatch.setattr(dynamics, "mu_player", third_run_starts_off)
    with pytest.raises(NumericalError, match=r"Born marginals .*'mixed\|phi01'"):
        dynamics.conditional_stack(s)
    assert _kept_context().conditional_n is None


@pytest.mark.parametrize("where", ["start", "middle"])
def test_nan_in_a_conditional_run_fails_its_check(where, monkeypatch):
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5), label="mixed")
    calls = []

    def nan_in_third_run(grid, initial):
        calls.append(1)
        mu = mu_player(grid, initial).copy()
        if len(calls) == 3:
            mu[1, 0 if where == "start" else mu.shape[1] // 2] = np.nan
        return mu

    monkeypatch.setattr(dynamics, "mu_player", nan_in_third_run)
    with pytest.raises(NumericalError, match=r"'mixed\|phi01'"):
        dynamics.conditional_stack(s)
    assert _kept_context().conditional_n is None


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
    assert propagator(build_generator(s.params), s.t_max, s.dt).used_fallback
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


@pytest.mark.parametrize("name, dt", [("fig1-right", 2e-4), ("fig6-right", 1e-3)])
def test_interference_is_a_transient(name, dt):
    # a damped generator sends V(t) to 0, so dmu and R vanish and the
    # stabilised n is the same from every initial state
    s = dataclasses.replace(PRESETS[name], t_max=5.0, dt=dt)
    times, R = ltp_residual(s)
    tail = times >= 0.9 * s.t_max
    assert np.abs(R).max() > 0.1
    assert np.abs(R[tail]).max() <= 1e-9
    n = decision_series(s).n
    for conditional_n in dynamics.conditional_stack(s):
        assert np.abs(conditional_n.T[tail] - n[tail]).max() <= 1e-9


def test_phase_sweep_builds_one_grid(monkeypatch):
    # every step shares params, t_max, dt and reservoir; only the initial
    # state moves.  Each step assembles its own run once (ltp_residual
    # reuses it), the four conditional runs are assembled on the first
    # step only, and the bath part is solved once for the whole sweep.
    counts = count_calls(monkeypatch, "propagator", "mu_player",
                         "bath_contribution")
    base = dataclasses.replace(PRESETS["fig1-left"], t_max=0.05)
    for theta in np.linspace(0.0, np.pi / 2, 4):
        phase = np.exp(1j * theta)
        s = dataclasses.replace(base, initial=InitialState.from_amplitudes(
            [0.5 * phase, -0.5 * phase, 0.5, -0.5]))
        decision_series(s)
        ltp_residual(s)
    assert counts == {"propagator": 1, "mu_player": 8, "bath_contribution": 1}


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


def test_kept_slots_include_every_known_slot():
    # the autouse fixture empties dynamics._context_slot; any other slot
    # would carry one test's grid or runs into the next
    slots = [value for key, module in list(sys.modules.items())
             if key == "qduet" or key.startswith("qduet.")
             for name, value in vars(module).items()
             if name.startswith("_") and name.endswith("_slot")]
    assert len(slots) == 1 and slots[0] is dynamics._context_slot


def _kept_context():
    """The kept run context record, or None."""
    assert len(dynamics._context_slot) <= 1
    return next(iter(dynamics._context_slot.values()), None)


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
        context = _kept_context()
        assert not context.nB.flags.writeable
        if op == "series":
            assert context.series.scenario.initial == SLOT_POOL[i].initial
        if context.conditional_n is not None:
            assert len(context.conditional_n) == 4
            assert not any(n.flags.writeable for n in context.conditional_n)


def test_failed_conditional_run_keeps_nothing(monkeypatch):
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))
    _, expected = ltp_residual(s)
    empty_slots()
    series = decision_series(s)  # kept, so the first attempt fails in a conditional run
    counts = count_calls(monkeypatch, "bath_contribution")
    assemblies = []

    def every_second_fails(*args):
        assemblies.append(1)
        if len(assemblies) % 2 == 0:
            raise NumericalError("injected failure")
        return mu_player(*args)

    monkeypatch.setattr(dynamics, "mu_player", every_second_fails)
    # each attempt: phi00 assembles, phi10 fails.  Conditional runs leave
    # the kept series alone, so the run itself is never assembled again
    for attempt in (1, 2):
        with pytest.raises(NumericalError, match="injected failure"):
            ltp_residual(s)
        assert len(assemblies) == 2 * attempt
        context = _kept_context()
        assert context.series is series and context.conditional_n is None
    assert counts["bath_contribution"] == 0  # nB stays kept
    monkeypatch.undo()
    _, R = ltp_residual(s)
    assert np.array_equal(R, expected)


def test_run_stays_kept_through_its_ltp_residual(monkeypatch):
    # the four conditional runs keep their n only, so the run asked for
    # after its residual is the kept one, not a fifth assembly
    s = base_scenario(InitialState(0.5j, -0.5j, 0.5, -0.5))
    series = decision_series(s)
    counts = count_calls(monkeypatch, "mu_player")
    ltp_residual(s)
    assert counts["mu_player"] == 4
    again = decision_series(s)
    assert counts["mu_player"] == 4
    assert again.n is series.n and _kept_context().series.n is series.n


@pytest.mark.parametrize("name", ["fig3-left", "fig6-right"])
def test_cold_ltp_residual_memory_per_point(name):
    # what a cold residual keeps: the run (RUN_BYTES_PER_POINT), the four
    # conditional n and R, 5 * 16 B per point more; a conditional run
    # forms only its mu beside the four slots, before R is formed, so the
    # peak stays within what is kept (151.6 B per point besides the stacks
    # and the slack, measured on both cases)
    s = dataclasses.replace(PRESETS[name], t_max=5.0)
    tracemalloc.start()
    try:
        times, R = ltp_residual(s)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nt = len(times)
    assert nt == 50001
    stacks = stack_bytes(dynamics.scenario_grid(s)) + 2 ** 16
    assert held <= (RUN_BYTES_PER_POINT + 5 * 16) * nt + stacks
    assert peak <= (RUN_BYTES_PER_POINT + 5 * 16) * nt + stacks
