"""Propagator and decision-function assembly."""

import dataclasses
import math
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

from conftest import EPS, amplitude_vectors, empty_slots, grid_rows, stack_bytes, stack_error
from hard import (
    HARD,
    WELL_CONDITIONED,
    bath_premise,
    damped,
    eigen_cond,
    exceptional_draws,
    exceptional_params,
    exceptional_points,
    hard_params,
    hard_reservoirs,
    make_params,
    make_scenario,
    route_cases,
)
import qduet
from qduet import algebra, dynamics
from qduet.dynamics import (
    bath_contribution,
    decision_series,
    delta_mu,
    make_times,
    mu_player,
    propagator,
    scenario_grid,
    stationary_limit,
)
from qduet.model import (
    PRESETS,
    RUN_BYTES_PER_POINT,
    InitialState,
    ModelParams,
    ReservoirState,
    born_probabilities,
    build_generator,
)


SHORT = dataclasses.replace(PRESETS["fig6-left"], t_max=0.05, label="short")


def as_rows(V):
    """The (2, 4, nt) player-row layout of an (nt, 4, 4) stack of V."""
    return V[:, :2].transpose(1, 2, 0)


def semigroup_deviation(U, grid, i, j):
    """max |rows(t_{i+j}) - rows(t_i) expm(i U t_j)|."""
    rows = grid_rows(grid)
    step = expm(1j * U * grid.times[j])
    return np.abs(rows[..., i] @ step - rows[..., i + j]).max()


def test_scenario_grid_is_shared_and_read_only():
    # one kept record per (params, t_max, dt, reservoir): runs that differ
    # only in the initial state or the label share its grid and its nB
    series = decision_series(SHORT)
    other = dataclasses.replace(SHORT, initial=InitialState.basis_state(1, 0),
                                label="other")
    grid = scenario_grid(other)
    other_series = decision_series(other)
    (context,) = dynamics._context_slot.values()
    assert context.grid is grid and context.series is other_series
    assert grid.times is series.times is other_series.times
    assert series.nB is other_series.nB is context.nB
    with pytest.raises(ValueError):
        series.times[0] = 1.0
    with pytest.raises(ValueError):
        series.nB[0, 0] = 1.0
    for stack in (grid.outer, grid.inner, grid.outer_terms, grid.inner_terms):
        with pytest.raises(ValueError):
            stack[(0,) * stack.ndim] = 0.0


@pytest.mark.parametrize("change", [
    dict(t_max=0.04), dict(dt=5e-5),
    dict(params=dataclasses.replace(SHORT.params, mu_ex=10.5)),
    dict(reservoir=ReservoirState(1.0, 0.0)),
])
def test_scenario_grid_rebuilds_for_a_new_key(change):
    scenario_grid(SHORT)
    s = dataclasses.replace(SHORT, **change)
    grid = scenario_grid(s)
    fresh = propagator(build_generator(s.params), s.t_max, s.dt)
    assert grid.times.tobytes() == fresh.times.tobytes()
    assert grid.outer.tobytes() == fresh.outer.tobytes()
    assert grid.inner.tobytes() == fresh.inner.tobytes()
    assert grid.outer_terms.tobytes() == fresh.outer_terms.tobytes()
    assert grid.inner_terms.tobytes() == fresh.inner_terms.tobytes()
    assert grid.used_fallback == fresh.used_fallback


def test_scenario_grid_releases_the_old_grid_first(monkeypatch):
    old = weakref.ref(scenario_grid(SHORT))

    def checking(*args):
        assert old() is None
        return propagator(*args)

    monkeypatch.setattr(dynamics, "propagator", checking)
    scenario_grid(dataclasses.replace(SHORT, t_max=0.04))
    assert old() is None


def test_failed_run_keeps_no_series(monkeypatch):
    expected = decision_series(SHORT)
    other = dataclasses.replace(SHORT, initial=InitialState.basis_state(1, 0))
    empty_slots()
    decision_series(other)

    def failing(*args):
        raise dynamics.NumericalError("injected failure")

    monkeypatch.setattr(dynamics, "delta_mu", failing)
    with pytest.raises(dynamics.NumericalError, match="injected failure"):
        decision_series(SHORT)
    (context,) = dynamics._context_slot.values()
    assert context.series is None and context.conditional_n is None
    monkeypatch.undo()
    series = decision_series(SHORT)
    for name in ("mu", "dmu", "nB", "n"):
        assert np.array_equal(getattr(series, name), getattr(expected, name))


@pytest.mark.parametrize("where", ["start", "middle"])
def test_nan_fails_the_run_time_checks(where, monkeypatch):
    # a NaN compares False with anything, so each check must be written to
    # fail on it; the NaN is player 2's, which Python's max(n1, nan) drops
    def nan_in_player_2(grid, initial):
        mu = mu_player(grid, initial).copy()
        mu[1, 0 if where == "start" else mu.shape[1] // 2] = np.nan
        return mu

    monkeypatch.setattr(dynamics, "mu_player", nan_in_player_2)
    with pytest.raises(dynamics.NumericalError, match="'short'"):
        decision_series(SHORT)


def test_make_times():
    t = make_times(0.5, 1e-4)
    assert len(t) == 5001
    assert t[0] == 0.0
    assert t[-1] == pytest.approx(0.5, abs=1e-12)


def test_propagator_identity_at_zero():
    U = build_generator(make_params(mu_ex=500.0))
    grid = propagator(U, 0.01, 1e-4)
    assert np.abs(grid_rows(grid)[..., 0] - np.eye(4)[:2]).max() <= 1e-12
    assert not grid.used_fallback


def test_propagator_free_case_diagonal_phases():
    w1, w2 = 1.3, 0.7
    U = build_generator(make_params(omega1=w1, omega2=w2,
                                      lambda1=0.0, lambda2=0.0))
    grid = propagator(U, 2.0, 1e-2)
    times = grid.times
    expected = np.zeros((len(times), 4, 4), dtype=complex)
    for k, w in enumerate((-w1, -w2, w1, w2)):
        expected[:, k, k] = np.exp(1j * w * times)
    assert np.abs(grid_rows(grid) - as_rows(expected)).max() <= 1e-12


def test_propagator_decoupled_damping_magnitude():
    params = make_params(lambda2=0.0)
    gamma1 = params.gamma1
    grid = propagator(build_generator(params), 1.0, 1e-3)
    assert np.abs(np.abs(grid_rows(grid)[0, 0]) - np.exp(-gamma1 * grid.times)).max() <= 1e-12


def test_propagator_semigroup_on_stiff_preset():
    U = build_generator(ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1,
                                      Omega2=0.1, lambda1=0.5, lambda2=0.5,
                                      mu_ex=500.0, mu_coop=0.0))
    grid = propagator(U, 0.5, 1e-4)
    for i, j in ((1234, 2345), (100, 4000), (2500, 2500)):
        assert semigroup_deviation(U, grid, i, j) <= 1e-9


@given(params=hard_params())
@settings(deadline=None, max_examples=70)
def test_propagator_semigroup_property(params):
    U = build_generator(params)
    grid = propagator(U, 0.4, 1e-2)
    # every draw counts: the gate keeps the eigen route at cond(P) <= 1e3
    for i, j in ((3, 5), (10, 17), (20, 20)):
        assert semigroup_deviation(U, grid, i, j) <= 1e-9


def test_propagator_rejects_bad_grids():
    # the grid rule a Scenario obeys, with its messages: a grid that would
    # end short of t_max, overflow or exceed MAX_GRID_POINTS is a
    # ValueError before any work
    s = PRESETS["fig1-left"]
    U = build_generator(s.params)
    for t_max, dt, message in ((1.0, 0.0, "dt must be positive"),
                               (1.0, -0.1, "dt must be positive"),
                               (1.0, 1.5, "must be smaller than t_max"),
                               (1.0, 1.0, "must be smaller than t_max"),
                               (math.inf, 0.1, "t_max must be finite"),
                               (math.nan, 0.1, "t_max must be finite"),
                               (1.0, 0.7, "not a whole number of dt"),
                               (1e300, 1e-300, "inf points"),
                               (1.0, 1e-7, "grid too large")):
        with pytest.raises(ValueError, match=message) as from_propagator:
            propagator(U, t_max, dt)
        with pytest.raises(ValueError) as from_scenario:
            dataclasses.replace(s, t_max=t_max, dt=dt)
        assert str(from_propagator.value) == str(from_scenario.value)


@pytest.mark.parametrize("t_max, dt", [(0.5, 1e-4), (0.3, 0.1), (2.0, 1.0)])
def test_propagator_makes_its_own_read_only_grid(t_max, dt):
    # the table identity V(t_{qB+b}) = V(t_qB) V(t_b) needs the exact grid
    # make_times gives; 0.3 / 0.1 ends one ulp past 0.3
    grid = propagator(build_generator(make_params()), t_max, dt)
    assert grid.times.tobytes() == make_times(t_max, dt).tobytes()
    with pytest.raises(ValueError):
        grid.times[0] = 1.0


def test_grid_generator_is_a_read_only_copy_of_U():
    U = build_generator(make_params(mu_ex=2.0))
    expected = U.copy()
    grid = propagator(U, 0.1, 1e-2)
    assert grid.generator.dtype == complex
    assert np.array_equal(grid.generator, expected)
    with pytest.raises(ValueError):
        grid.generator[0, 0] = 0.0
    U[0, 0] = 7.0
    assert np.array_equal(grid.generator, expected)


def test_propagator_fallback_on_defective_generator():
    # a nilpotent generator has a defective eigenvector matrix; the
    # fallback exponential is exact there: e^{iUt} = 1 + iUt
    U = np.zeros((4, 4), dtype=complex)
    U[0, 1] = 1.0
    grid = propagator(U, 1.0, 0.1)
    times = grid.times
    assert grid.used_fallback
    expected = np.eye(4)[None, :, :] + 1j * U[None, :, :] * times[:, None, None]
    assert np.abs(grid_rows(grid) - as_rows(expected)).max() <= 1e-12


def test_propagator_table_squares_large_steps():
    # nilpotent of degree 3 with dt ||U||_1 = 12.5: both factor stacks of
    # the table need 6 to 8 squarings; e^{iUt} = 1 + iUt - (Ut)^2 / 2
    U = np.zeros((4, 4), dtype=complex)
    U[0, 1] = U[1, 2] = 25.0
    grid = propagator(U, 10.0, 0.5)
    times = grid.times
    assert grid.used_fallback
    iUt = 1j * U[None, :, :] * times[:, None, None]
    expected = np.eye(4) + iUt + iUt @ iUt / 2.0
    assert (np.abs(grid_rows(grid) - as_rows(expected)).max()
            <= 1e-12 * np.abs(expected).max())


@given(params=exceptional_points(), t_max=st.floats(0.5, 20.0))
@settings(deadline=None, max_examples=80)
def test_propagator_on_and_near_exceptional_points(params, t_max):
    U = build_generator(params)
    grid = propagator(U, t_max, t_max / 2000)
    times = grid.times

    # the documented gate: the eigen route runs where cond(P) is at most
    # COND_LIMIT, the table route everywhere else
    cond = eigen_cond(U)
    assert grid.used_fallback == (not cond <= dynamics.COND_LIMIT)

    # the eigen route rounds at the scale n eps cond(P), n = 4, which
    # passes 1e-12 once cond(P) exceeds ~1e3
    tol = 1e-12
    if not grid.used_fallback:
        tol = max(tol, 4 * np.finfo(float).eps * cond)
    rows = grid_rows(grid)
    for i in np.linspace(0, len(times) - 1, 20).astype(int):
        assert np.abs(rows[..., i] - expm(1j * U * times[i])[:2]).max() <= tol


@pytest.mark.parametrize("side", ["below", "above"])
def test_route_gate_on_both_sides_of_the_limit(side):
    # seeded draws near both exceptional-point families: at cond(P) in
    # (100, COND_LIMIT] the eigen route runs, and its stacks round at
    # eps cond(P) (0.91 at worst in 300 seeded draws); above the limit the
    # table route runs, at rounding scale whatever cond(P) is (9.3 eps at
    # worst in 700 draws, cond(P) up to 1.2e6)
    limit = dynamics.COND_LIMIT
    low, high = (100.0, limit) if side == "below" else (limit, np.inf)
    for s in exceptional_draws(6, low, high, seed=11):
        U = build_generator(s.params)
        grid = propagator(U, s.t_max, s.dt)
        assert grid.used_fallback == (side == "above")
        bound = 2 * EPS * eigen_cond(U) if side == "below" else 16 * EPS
        assert stack_error(U, grid) <= bound


def test_propagator_fallback_near_eigenvalue_coalescence():
    # at the exceptional point the eigenvector matrix condition number
    # blows up (9.0e7) and the gate sends the grid to the table route
    grid = propagator(build_generator(exceptional_params()), 1.0, 1e-2)
    assert grid.used_fallback
    assert np.abs(grid_rows(grid)[..., 0] - np.eye(4)[:2]).max() <= 1e-12


def explicit_form(V, W):
    """sum_kl conj(V_jk) V_jl W_kl for j = 1, 2 as a (2, len(V)) array."""
    return np.einsum("tjk,tjl,kl->jt", V[:, :2].conj(), V[:, :2], W).real


def gram(initial):
    # G_kl = <B_k psi, B_l psi> for B = (b1, b2, b1^dag, b2^dag)
    b1, b2 = algebra.build_mode_operators()
    Bpsi = np.array([m @ initial.amplitudes
                     for m in (b1, b2, b1.conj().T, b2.conj().T)])
    return Bpsi.conj() @ Bpsi.T


# a dense Hermitian weight with entries of order 1
_X = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 4, 4))
HERMITIAN = (_X[0] + 1j * _X[1] + _X[0].T - 1j * _X[1].T) / 2.0


def assert_forms_match_expm(U, grid, initial, tol):
    # mu, dmu and the kernel on a dense weight, against the definition
    # evaluated on scipy's expm at 20 grid points
    times = grid.times
    idx = np.linspace(0, len(times) - 1, 20).astype(int)
    V = np.stack([expm(1j * U * times[i]) for i in idx])
    G = gram(initial)
    pairs = ((mu_player(grid, initial), np.diag(np.diag(G))),
             (delta_mu(grid, initial), G - np.diag(np.diag(G))),
             (dynamics._player_forms(grid, HERMITIAN), HERMITIAN))
    for forms, W in pairs:
        assert forms.shape == (2, len(times))
        assert np.abs(forms[:, idx] - explicit_form(V, W)).max() <= tol


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_forms_match_expm_on_presets(name):
    s = PRESETS[name]
    U = build_generator(s.params)
    assert_forms_match_expm(U, propagator(U, s.t_max, s.dt),
                            s.initial, 1e-14)


@pytest.mark.parametrize("s", [s for s in HARD if damped(s.params) and eigen_cond(
                                   build_generator(s.params)) <= WELL_CONDITIONED],
                         ids=lambda s: s.label)
def test_routes_agree_on_presets(s, monkeypatch):
    # the table route, forced, against the eigen route every well
    # conditioned damped member takes: 2.3e-15 at worst (nB on fig2), so
    # 5e-15 leaves a factor 2.  V decays there, so the two routes differ
    # by the rounding of the first steps; an undamped run's phases round at
    # eps |w| t, and the routes differ by 7.8e-15 on the closed run
    eigen = decision_series(s)
    assert not scenario_grid(s).used_fallback
    empty_slots()
    monkeypatch.setattr(dynamics, "COND_LIMIT", -1)
    table = decision_series(s)
    assert scenario_grid(s).used_fallback
    for name in ("mu", "dmu", "nB", "n"):
        assert np.abs(getattr(table, name) - getattr(eigen, name)).max() <= 5e-15


@given(params=exceptional_points(), t_max=st.floats(0.5, 20.0),
       alpha=amplitude_vectors())
@settings(deadline=None, max_examples=60)
def test_forms_match_expm_on_and_near_exceptional_points(params, t_max, alpha):
    # 1e-14 on the table route; the eigen route's V itself rounds at the
    # scale n eps cond(P), n = 4 (see the propagator test above), which
    # passes 1e-14 once cond(P) exceeds ~10
    U = build_generator(params)
    grid = propagator(U, t_max, t_max / 2000)
    tol = 1e-14
    if not grid.used_fallback:
        tol = max(tol, 4 * EPS * eigen_cond(U))
    assert_forms_match_expm(U, grid, InitialState.from_amplitudes(alpha), tol)


@pytest.mark.parametrize("detune", [1e-9, 1e-8, 1e-7, 1.2e-6])
def test_eigen_route_near_exceptional_point_meets_the_born_check(detune):
    # a form built in the eigenbasis would round at eps cond(P)^2, up to
    # 1e-8 at cond(P) 3e4, and fail the 1e-10 Born check at t = 0; the
    # player rows of V round at eps cond(P).  cond(P) is 3e4 to 3e3 at
    # detunes 1e-9 to 1e-7, which take the table route, and 913 at 1.2e-6,
    # just under COND_LIMIT, which takes the eigen route
    s = make_scenario(exceptional_params(detune), InitialState(0.5j, -0.5j, 0.5, -0.5),
                      N1=0.3, N2=0.8, t_max=5.0, dt=1e-3)
    series = decision_series(s)
    assert scenario_grid(s).used_fallback == (detune < 1e-6)
    _, p1_1, _, p2_1 = born_probabilities(s.initial)
    assert abs(series.n[0, 0] - p1_1) <= 1e-12
    assert abs(series.n[0, 1] - p2_1) <= 1e-12


def route_scenario(route):
    # nt = 5001, not a whole number of table rows of B = 71
    if route == "eigendecomposition":
        return PRESETS["fig6-right"]
    return make_scenario(exceptional_params(), InitialState(0.5j, -0.5j, 0.5, -0.5),
                         N1=0.3, N2=0.8, t_max=5.0, dt=1e-3)


@pytest.mark.parametrize("route", ["eigendecomposition", "fallback"])
def test_cold_run_peak_memory_stays_below_V(route):
    # V alone would take 256 B per grid point.  A run keeps at most
    # RUN_BYTES_PER_POINT (the times and the series) plus the grid's
    # O(sqrt(nt)) stacks, on either route, and peaks one more series
    # column pair above that
    if route == "eigendecomposition":
        s = dataclasses.replace(PRESETS["fig3-left"], t_max=5.0)
    else:
        s = dataclasses.replace(route_scenario(route), t_max=50.0)
    tracemalloc.start()
    try:
        series = decision_series(s)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nt = len(series.times)
    grid = scenario_grid(s)
    assert nt >= 50001
    assert grid.used_fallback == (route == "fallback")
    assert held <= RUN_BYTES_PER_POINT * nt + stack_bytes(grid) + 2 ** 16
    assert peak < 256 * nt


@pytest.mark.parametrize("route", ["eigendecomposition", "fallback"])
def test_grid_bytes_grow_as_sqrt_nt(route):
    # besides its times, a grid holds U, the outer and inner stacks and
    # their terms, 128 + 256 bytes per table row and 256 + 2048 per
    # column: no array of nt points
    base = route_scenario(route)
    for scale in (1, 10, 40):  # nt = 5001, 50001 and 200001
        s = dataclasses.replace(base, t_max=base.t_max * scale)
        grid = scenario_grid(s)
        assert grid.used_fallback == (route == "fallback")
        nt = len(grid.times)
        B = math.isqrt(nt - 1) + 1
        assert grid.outer.shape == (2, 4, -(-nt // B))
        assert grid.inner.shape == (4, 4, B)
        assert grid.outer_terms.shape == (2 * -(-nt // B), 16)
        assert grid.inner_terms.shape == (16, 16 * B)
        assert grid.inner_terms.dtype == float
        assert set(vars(grid)) == {"times", "generator", "used_fallback",
                                   "outer", "inner", "outer_terms", "inner_terms"}
        held = sum(np.asarray(value).nbytes for value in vars(grid).values())
        assert held - grid.times.nbytes <= 2688 * (math.isqrt(nt) + 2) + 256


def elementwise_forms(grid, W):
    """f_j^W at every grid point, term by term on the player rows."""
    x = grid_rows(grid)
    return np.einsum("jck,cd,jdk->jk", x.conj(), W, x).real


@pytest.mark.parametrize("s, route", route_cases(HARD))
def test_product_forms_match_elementwise_forms(s, route, monkeypatch):
    # the one-product forms against the definition summed term by term on
    # the same grid's player rows: both round at eps times the size of the
    # stacks' entries, which is cond(P) on the eigen route
    if route == "fallback":
        monkeypatch.setattr(dynamics, "COND_LIMIT", -1)
    U = build_generator(s.params)
    grid = propagator(U, s.t_max, s.dt)
    assert grid.used_fallback == (route == "fallback")
    scale = 1.0
    if not grid.used_fallback:
        scale = max(1.0, eigen_cond(U))
    G = gram(s.initial)
    for forms, W in ((mu_player(grid, s.initial), np.diag(np.diag(G))),
                     (delta_mu(grid, s.initial), G - np.diag(np.diag(G))),
                     (dynamics._player_forms(grid, HERMITIAN), HERMITIAN)):
        assert forms.shape == (2, len(grid.times))
        assert np.abs(forms - elementwise_forms(grid, W)).max() <= 8 * EPS * scale


# S swaps (b1, b2) with (b1^dag, b2^dag)
SWAP = np.eye(4)[[2, 3, 0, 1]]
@pytest.mark.parametrize("s, route", route_cases(HARD, WELL_CONDITIONED))
def test_particle_hole_symmetry(s, route, monkeypatch):
    # U = -S conj(U) S, the particle-hole symmetry of a Bogoliubov-de
    # Gennes generator, holds exactly; so V(t) = exp(i U t) = S conj(V) S,
    # which every inner matrix meets to rounding (3.0e-16 at most on the
    # presets), a check that needs no reference exponential
    U = build_generator(s.params)
    assert np.array_equal(U, -SWAP @ U.conj() @ SWAP)
    if route == "fallback":
        monkeypatch.setattr(dynamics, "COND_LIMIT", -1)
    grid = propagator(U, s.t_max, s.dt)
    assert grid.used_fallback == (route == "fallback")
    inner = grid.inner.transpose(2, 0, 1)
    assert (np.abs(inner - SWAP @ inner.conj() @ SWAP).max()
            <= 8 * EPS * np.abs(inner).max())


def lyapunov_solution(params, reservoir):
    """N of A N + N A^dag = D, A = i U, by scipy's Bartels-Stewart solver."""
    k1 = params.lambda1 ** 2 / params.Omega1
    k2 = params.lambda2 ** 2 / params.Omega2
    N1, N2 = reservoir.N1, reservoir.N2
    D = np.diag([k1 * N1, k2 * N2, k1 * (1.0 - N1), k2 * (1.0 - N2)])
    return solve_continuous_lyapunov(1j * build_generator(params), D)


def assert_limit_matches_lyapunov(params, reservoir):
    limit = stationary_limit(params, reservoir)
    expected = -2.0 * np.pi * lyapunov_solution(params, reservoir).diagonal()[:2].real
    assert np.abs(np.subtract(limit, expected)).max() <= 1e-13


@pytest.mark.parametrize("s", [s for s in HARD if damped(s.params)], ids=lambda s: s.label)
def test_stationary_limit_matches_lyapunov_solver(s):
    assert_limit_matches_lyapunov(s.params, s.reservoir)


@given(params=hard_params(), reservoir=hard_reservoirs())
@settings(deadline=None, max_examples=270)
def test_stationary_limit_matches_lyapunov_solver_on_damped_draws(params, reservoir):
    # both players damped, and the bath premise: every draw of the damped
    # box (Gamma_j >= 0.126), 8.5e-14 at worst in 400 seeded draws of it
    # with a margin below BATH_MARGIN; outside it, at Gamma = (1.9e-4,
    # 7.7e-4), margin 4.8e-4, both solves lose digits and the limits
    # differ by 1.2e-13
    assume(damped(params) and bath_premise(params))
    assert_limit_matches_lyapunov(params, reservoir)


@pytest.mark.parametrize("lambdas", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
def test_undamped_player_has_no_certified_limit(lambdas):
    # (0.5, 0) is acceptance criterion 4's decoupled player
    params = make_params(lambda1=lambdas[0], lambda2=lambdas[1])
    assert stationary_limit(params, ReservoirState(0.75, 0.25)) is None


@pytest.mark.parametrize("s", [s for s in HARD if damped(s.params)], ids=lambda s: s.label)
def test_runs_approach_the_limit_within_the_certificate(s):
    # n_j(t) - n_j(inf) = f_j^W(t) with W = G + 2 pi N^T, and
    # ||V(t)||_2 <= exp(-Gamma_min t), so the distance is at most
    # ||W||_2 exp(-2 Gamma_min t) at every grid point; the bound is sharp
    # (0.93 of it on fig2-right), so it carries a rounding floor
    # each member to t_max 4, at the dt nearest its own that divides 4
    s = dataclasses.replace(s, t_max=4.0, dt=4.0 / round(4.0 / s.dt))
    series = decision_series(s)
    W = gram(s.initial) + 2.0 * np.pi * lyapunov_solution(s.params, s.reservoir).T
    gamma = min(s.params.gamma1, s.params.gamma2)
    bound = np.linalg.norm(W, 2) * np.exp(-2.0 * gamma * series.times) + 64 * EPS
    distance = np.abs(series.n - stationary_limit(s.params, s.reservoir))
    assert np.all(distance <= bound[:, None])


def test_mu_player_identity_propagator():
    # U = 0 gives V(t) = 1 at every grid point
    grid = propagator(np.zeros((4, 4)), 0.1, 0.05)
    mu1, mu2 = mu_player(grid, InitialState.basis_state(1, 0))
    assert mu1 == pytest.approx([1.0] * 3) and mu2 == pytest.approx([0.0] * 3)
    mu1, mu2 = mu_player(grid, InitialState(0.5, 0.5, 0.5, 0.5))
    assert mu1 == pytest.approx([0.5] * 3) and mu2 == pytest.approx([0.5] * 3)


def test_mu_player_decoupled_decay():
    params = make_params(lambda2=0.0)
    grid = propagator(build_generator(params), 1.0, 1e-3)
    mu1, _ = mu_player(grid, InitialState.basis_state(1, 0))
    assert np.abs(mu1 - np.exp(-2.0 * params.gamma1 * grid.times)).max() <= 1e-12


def test_delta_mu_zero_for_basis_states():
    grid = propagator(build_generator(make_params(mu_ex=2.0, mu_coop=1.0)), 1.0, 1e-2)
    for l in (0, 1):
        for k in (0, 1):
            # a zero weight gives +0.0 at every point, not just a zero
            dmu = delta_mu(grid, InitialState.basis_state(k, l))
            assert np.all(dmu == 0.0) and not np.signbit(dmu).any()


def test_delta_mu_zero_at_identity():
    grid = propagator(np.zeros((4, 4)), 0.1, 0.05)
    d1, d2 = delta_mu(grid, InitialState(0.5, 0.5, 0.5, 0.5))
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)


def test_bath_contribution_zero_couplings():
    params = make_params(lambda1=0.0, lambda2=0.0)
    grid = propagator(build_generator(params), 1.0, 1e-2)
    nB1, nB2 = bath_contribution(ReservoirState(1.0, 1.0), params, grid)
    assert np.abs(nB1).max() == 0.0
    assert np.abs(nB2).max() == 0.0


@pytest.mark.parametrize("N1", [0.0, 0.5, 1.0])
def test_bath_contribution_decoupled_closed_form(N1):
    params = make_params(lambda2=0.0)
    gamma1 = params.gamma1
    grid = propagator(build_generator(params), 1.0, 1e-4)
    nB1, nB2 = bath_contribution(ReservoirState(N1, 0.7), params, grid)
    expected = N1 * (1.0 - np.exp(-2.0 * gamma1 * grid.times))
    assert np.abs(nB1 - expected).max() <= 1e-12
    assert np.abs(nB2).max() == 0.0


@pytest.mark.parametrize("s", [s for s in HARD
                               if max(s.params.gamma1, s.params.gamma2) * s.t_max <= 4.0],
                         ids=lambda s: s.label)
def test_bath_contribution_matches_block_exponential(s):
    # Van Loan: the top-right block F of expm([[A, D], [0, -A^dag]] t)
    # gives integral_0^t V D V^dag ds = F(t) expm(A^dag t); F grows like
    # exp(Gamma t), so the members are those with Gamma_max t_max <= 4,
    # where the reference keeps 1e-12 (fig6-right with lambda2 = 0 at
    # t_max 2, Gamma_max t_max = 15.7, reads 2.6e-12)
    params, reservoir = s.params, s.reservoir
    U = build_generator(params)
    grid = propagator(U, s.t_max, s.dt)
    times = grid.times
    assert grid.used_fallback == (not eigen_cond(U) <= dynamics.COND_LIMIT)
    nB1, nB2 = bath_contribution(reservoir, params, grid)

    A = 1j * U
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
    # baths, phi_00 against empty ones) at cond(P) 9.0e7 (detune 0) and
    # 1.0e3 (1e-6), on the route the gate picks
    params = exceptional_params(detune)
    s = make_scenario(params, InitialState.basis_state(k, k), N1=N, N2=N,
                      t_max=5.0, dt=1e-3)
    series = decision_series(s)
    U = build_generator(params)
    grid = propagator(U, s.t_max, s.dt)
    assert grid.used_fallback == (not eigen_cond(U) <= dynamics.COND_LIMIT)
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


def test_package_api_is_its_modules_all():
    # each public name is declared once, in its module's __all__, and the
    # package re-exports the union of those lists, with no name twice
    from qduet import analysis, model, oracle
    modules = (algebra, analysis, dynamics, model, oracle)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert set(qduet.__all__) == {"__version__", *declared}
    assert len(qduet.__all__) == len(declared) + 1
    for module in modules:
        for name in module.__all__:
            assert getattr(qduet, name) is getattr(module, name), name
    assert not hasattr(qduet, "conditional_runs")
    assert not hasattr(dynamics, "conditional_runs")


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
    grid = propagator(build_generator(params), 0.5, 1e-2)
    weights = np.abs(alpha) ** 2
    mixed = np.zeros((len(grid.times), 2))
    for idx in range(4):
        k, l = idx % 2, idx // 2
        m1, m2 = mu_player(grid, InitialState.basis_state(k, l))
        mixed[:, 0] += weights[idx] * m1
        mixed[:, 1] += weights[idx] * m2
    m1, m2 = mu_player(grid, InitialState.from_amplitudes(alpha))
    assert np.abs(m1 - mixed[:, 0]).max() <= 1e-12
    assert np.abs(m2 - mixed[:, 1]).max() <= 1e-12
