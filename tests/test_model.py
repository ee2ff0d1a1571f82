"""Model inputs: parameters, generator pattern, Born rule, scenarios."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import amplitude_vectors
from qduet import model
from qduet.model import (
    CALPHA1,
    CALPHA2,
    C1,
    C2,
    MAX_GRID_POINTS,
    PRESETS,
    RUN_BYTES_PER_POINT,
    InitialState,
    ModelParams,
    ReservoirState,
    Scenario,
    ScenarioError,
    born_probabilities,
    build_generator,
    closed_hamiltonian,
    default_dt,
    is_entangled,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

TOL = 1e-12


def make_params(**kw):
    base = dict(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                lambda1=0.5, lambda2=0.5, mu_ex=0.0, mu_coop=0.0)
    base.update(kw)
    return ModelParams(**base)


params_strategy = st.builds(
    make_params,
    omega1=st.floats(-3, 3), omega2=st.floats(-3, 3),
    Omega1=st.floats(0.1, 2.0), Omega2=st.floats(0.1, 2.0),
    lambda1=st.floats(0, 1.5), lambda2=st.floats(0, 1.5),
    mu_ex=st.floats(-5, 5), mu_coop=st.floats(-5, 5),
)


def test_generator_first_parameter_set():
    U = build_generator(ModelParams(mu_ex=500.0, mu_coop=0.0, **C1))
    assert type(U) is np.ndarray and U.shape == (4, 4) and U.dtype == complex
    # the effective frequencies sit on the diagonal: U[0, 0] = i nu1 and
    # U[1, 1] = i nu2
    assert abs(U[0, 0] - 1j * (1j + 2.5 * math.pi)) <= TOL
    assert abs(U[1, 1] - 1j * (2j + 2.5 * math.pi)) <= TOL
    assert abs(U[0, 1] - (-500.0)) <= TOL


def test_generator_second_parameter_set():
    U = build_generator(ModelParams(mu_ex=100.0, mu_coop=0.0, **C2))
    assert abs(U[0, 0] - 1j * (0.1j + math.pi)) <= TOL
    assert abs(U[1, 1] - 1j * (0.2j + 0.49 * math.pi)) <= TOL


def test_generator_free_case_is_diagonal():
    U = build_generator(make_params(lambda1=0.0, lambda2=0.0))
    assert np.abs(U - np.diag([-1.0, -2.0, 1.0, 2.0])).max() <= TOL


@given(params=params_strategy)
@settings(deadline=None)
def test_generator_entry_pattern(params):
    U = build_generator(params)
    mx, mc = params.mu_ex, params.mu_coop
    for i, j in ((0, 2), (1, 3), (2, 0), (3, 1)):
        assert U[i, j] == 0.0
    assert U[0, 3] == -mc and U[3, 0] == -mc
    assert U[1, 2] == mc and U[2, 1] == mc
    assert U[0, 1] == -mx and U[1, 0] == -mx
    assert U[2, 3] == mx and U[3, 2] == mx
    # lower diagonal block is the reflected conjugate of the upper one
    assert abs(U[2, 2] + np.conj(U[0, 0])) <= TOL
    assert abs(U[3, 3] + np.conj(U[1, 1])) <= TOL


def test_commutator_tables_are_exact():
    # [T_t, B_k] = sum_l K_t[k, l] B_l with no rounding: every K_t entry is
    # 0 or +-1 and each B_l has its own support
    for T, K in zip(model._TERMS, model._TABLES):
        assert set(np.unique(K)) <= {-1.0, 0.0, 1.0}
        for B_k, row in zip(model._MODES, K):
            assert np.array_equal(T @ B_k - B_k @ T, np.tensordot(row, model._MODES, 1))


@given(params=params_strategy)
@settings(max_examples=300, deadline=None)
def test_generator_is_the_heisenberg_generator_of_h(params):
    # [H, B_k] = sum_l (U - i Gamma)_kl B_l.  H's diagonal sums round (its
    # last entry is omega1 + omega2), so the bound is 2 eps max|c|; 0.99 of
    # it measured in 5000 draws
    H = closed_hamiltonian(params)
    U = build_generator(params)
    closed = U - np.diag(1j * np.array([params.gamma1, params.gamma2] * 2))
    B = model._MODES
    defect = np.abs(H @ B - B @ H - np.tensordot(closed, B, 1)).max()
    c = max(abs(params.omega1), abs(params.omega2), abs(params.mu_ex), abs(params.mu_coop))
    assert defect <= 2 * np.finfo(float).eps * c


def test_param_validation():
    with pytest.raises(ScenarioError):
        make_params(Omega1=0.0)
    with pytest.raises(ScenarioError):
        make_params(Omega2=-1.0)
    with pytest.raises(ScenarioError):
        make_params(omega1=float("nan"))


def test_reservoir_validation():
    ReservoirState(0.0, 1.0)
    with pytest.raises(ScenarioError):
        ReservoirState(-0.1, 0.5)
    with pytest.raises(ScenarioError):
        ReservoirState(0.5, 1.1)


def test_initial_state_normalization():
    InitialState(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ScenarioError):
        InitialState(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ScenarioError):
        InitialState(1.0, 1.0, 0.0, 0.0)


def test_born_probabilities_examples():
    p = born_probabilities(CALPHA1)
    assert p == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=TOL)
    p = born_probabilities(InitialState.basis_state(1, 0))
    assert p == pytest.approx((0.0, 1.0, 1.0, 0.0), abs=TOL)
    p = born_probabilities(CALPHA2)
    assert p == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=TOL)


@given(alpha=amplitude_vectors())
@settings(deadline=None)
def test_born_probabilities_sum_to_one(alpha):
    p1_0, p1_1, p2_0, p2_1 = born_probabilities(InitialState.from_amplitudes(alpha))
    assert p1_0 + p1_1 == pytest.approx(1.0, abs=1e-9)
    assert p2_0 + p2_1 == pytest.approx(1.0, abs=1e-9)
    assert min(p1_0, p1_1, p2_0, p2_1) >= -TOL


@given(alpha=amplitude_vectors(), theta=st.floats(0, 2 * math.pi))
@settings(deadline=None)
def test_born_probabilities_global_phase_invariant(alpha, theta):
    base = born_probabilities(InitialState.from_amplitudes(alpha))
    rotated = born_probabilities(
        InitialState.from_amplitudes(alpha * np.exp(1j * theta)))
    assert base == pytest.approx(rotated, abs=1e-9)


def test_is_entangled_examples():
    assert not is_entangled(InitialState.basis_state(1, 0))
    assert not is_entangled(CALPHA1)
    bell = InitialState(1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))
    assert is_entangled(bell)


@given(alpha=amplitude_vectors(),
       theta=st.floats(0, 2 * math.pi), phi=st.floats(0, 2 * math.pi))
@settings(deadline=None)
def test_is_entangled_local_phase_invariant(alpha, theta, phi):
    # local phases multiply the determinant by a unit modulus factor
    tol = 1e-6
    det = alpha[0] * alpha[3] - alpha[2] * alpha[1]
    assume(abs(abs(det) - tol) > 1e-9)
    phased = alpha * np.array([1.0,
                               np.exp(1j * theta),
                               np.exp(1j * phi),
                               np.exp(1j * (theta + phi))])
    assert (is_entangled(InitialState.from_amplitudes(alpha), tol)
            == is_entangled(InitialState.from_amplitudes(phased), tol))


def test_validate_scenario_grid_rule():
    s = PRESETS["fig1-left"]
    assert validate_scenario(s) is s
    with pytest.raises(ScenarioError, match="need dt"):
        Scenario(params=s.params, reservoir=s.reservoir, initial=s.initial,
                 t_max=0.5, dt=1e-2, label="coarse")
    with pytest.raises(ScenarioError):
        Scenario(params=s.params, reservoir=s.reservoir, initial=s.initial,
                 t_max=1e-5, dt=1e-4, label="inverted")


def test_validate_scenario_grid_size_guard():
    # validation only: a grid this size is never built here
    s = PRESETS["fig3-left"]
    largest = dataclasses.replace(s, t_max=(MAX_GRID_POINTS - 1) * s.dt)
    assert validate_scenario(largest) is largest
    with pytest.raises(ScenarioError) as err:
        dataclasses.replace(s, t_max=MAX_GRID_POINTS * s.dt)
    message = str(err.value)
    assert f"{MAX_GRID_POINTS + 1} points" in message
    assert f"{(MAX_GRID_POINTS + 1) * RUN_BYTES_PER_POINT:.4g} bytes" in message
    # a --ltp run keeps the four conditional n and R besides the run
    ltp = RUN_BYTES_PER_POINT + 5 * 16
    assert f"{ltp} with --ltp: {MAX_GRID_POINTS * ltp:.4g} bytes at the cap" in message
    assert f"t_max may be at most {largest.t_max:.12g} " in message
    # the largest t_max named passes validation, whatever dt is
    for dt in (1.23456e-4, 7.7777e-5):
        with pytest.raises(ScenarioError) as err:
            dataclasses.replace(s, t_max=1e4, dt=dt)
        t_max = float(str(err.value).split("at most ")[1].split()[0])
        dataclasses.replace(s, t_max=t_max, dt=dt)
    # t_max / dt overflows to inf
    with pytest.raises(ScenarioError, match="inf points"):
        dataclasses.replace(s, t_max=1e300, dt=1e-20)


@pytest.mark.parametrize("field, value", [
    ("t_max", "0.5"), ("dt", None), ("params", None), ("reservoir", None),
    ("initial", None), ("label", 3),
    ("params", dict(omega1=1.0)), ("initial", [1.0, 0.0, 0.0, 0.0]),
])
def test_wrong_typed_field_is_a_scenario_error(field, value):
    with pytest.raises(ScenarioError, match=f"^{field} must be"):
        dataclasses.replace(PRESETS["fig1-left"], **{field: value})


def test_wrong_typed_parameter_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="^mu_ex must be a real number"):
        make_params(mu_ex="1.0")
    with pytest.raises(ScenarioError, match="^N2 must be a real number"):
        ReservoirState(0.5, None)
    with pytest.raises(ScenarioError, match="^a10 must be a complex number"):
        InitialState(1.0, "0", 0.0, 0.0)
    # a bool is a number to Python, but not a rate or an amplitude
    with pytest.raises(ScenarioError, match="^lambda1 must be a real number"):
        make_params(lambda1=True)
    with pytest.raises(ScenarioError, match="^N1 must be a real number"):
        ReservoirState(False, 1.0)
    with pytest.raises(ScenarioError, match="^a00 must be a complex number"):
        InitialState(True, 0.0, 0.0, 0.0)


def slow_scenario(t_max, dt):
    # rates slow enough for steps up to 1 to pass the grid rule
    params = make_params(omega1=0.1, omega2=0.1, Omega1=1.0, Omega2=1.0,
                         lambda1=0.1, lambda2=0.1, mu_ex=0.1)
    return Scenario(params=params, reservoir=ReservoirState(0.0, 1.0),
                    initial=CALPHA1, t_max=t_max, dt=dt)


@pytest.mark.parametrize("t_max, dt, nearest", [(0.5, 0.3, "0.6"),
                                                (0.5, 0.4, "0.4")])
def test_grid_must_end_at_t_max(t_max, dt, nearest):
    with pytest.raises(ScenarioError) as err:
        slow_scenario(t_max, dt)
    message = str(err.value)
    assert "not a whole number of" in message
    assert message.endswith(f"the nearest valid t_max is {nearest}")


@pytest.mark.parametrize("t_max, dt", [(0.5, 1e-4), (5.0, 1e-3),
                                       (20.0, 1e-4), (0.05, 2e-3)])
def test_whole_step_grids_are_accepted(t_max, dt):
    s = slow_scenario(t_max, dt)
    assert validate_scenario(s) is s


def test_default_dt():
    assert default_dt(ModelParams(mu_ex=500.0, mu_coop=0.0, **C1)) == pytest.approx(1e-4)
    assert default_dt(make_params(mu_ex=2000.0)) == pytest.approx(0.1 / 2000.0)
    slow = make_params(omega1=0.5, omega2=0.5, lambda1=0.0, lambda2=0.0)
    assert default_dt(slow) == pytest.approx(1e-4)


@settings(max_examples=200, deadline=None)
@given(f_max=st.floats(4.0, 1e7))
@example(f_max=7.0)  # the "need dt <= 0.0143" of a rounded message
@example(f_max=682611.6436983886)  # 0.1 / f_max * f_max rounds above 0.1
def test_named_dt_passes_the_grid_rule(f_max):
    # default_dt and the dt a too-coarse grid's message names both pass,
    # and the named dt is the largest that does
    params = ModelParams(mu_ex=f_max, mu_coop=0.0, **C2)  # C2's rates are < 4
    assert params.f_max == f_max
    base = PRESETS["fig3-left"]

    def scenario(dt):
        return Scenario(params=params, reservoir=base.reservoir,
                        initial=base.initial, t_max=10 * dt, dt=dt)

    scenario(default_dt(params))
    with pytest.raises(ScenarioError) as err:
        scenario(1.0)
    assert f"dt*f_max = {f_max!r} > 0.1" in str(err.value)
    named = float(str(err.value).split("need dt <= ")[1])
    assert named > 0.0
    scenario(named)
    with pytest.raises(ScenarioError, match="grid too coarse"):
        scenario(math.nextafter(named, math.inf))


def test_preset_table():
    assert set(PRESETS) == {
        "fig1-left", "fig1-right", "fig2-left", "fig2-right",
        "fig3-left", "fig3-right", "fig6-left", "fig6-right",
    }
    for name, s in PRESETS.items():
        assert s.label == name
        assert validate_scenario(s) is s
        assert s.initial == (CALPHA1 if name.endswith("left") else CALPHA2)
    assert PRESETS["fig2-left"].reservoir == ReservoirState(1.0, 1.0)
    assert PRESETS["fig3-left"].params.mu_ex == 100.0
    assert PRESETS["fig3-left"].params.Omega1 == C2["Omega1"]
    assert PRESETS["fig6-right"].params.mu_ex == 10.0
    assert PRESETS["fig6-right"].params.mu_coop == 10.0
    assert PRESETS["fig1-left"].reservoir == ReservoirState(0.0, 1.0)


def test_scenario_json_round_trip(tmp_path):
    s = PRESETS["fig6-right"]
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert loaded.params == s.params
    assert loaded.reservoir == s.reservoir
    assert loaded.initial == s.initial
    assert loaded.t_max == s.t_max and loaded.dt == s.dt and loaded.label == s.label


def test_saved_presets_keep_their_document(tmp_path):
    # the expected document is written out key by key, independently of
    # the dataclass fields
    for name, s in PRESETS.items():
        p, r = s.params, s.reservoir
        expected = {
            "omega1": p.omega1, "omega2": p.omega2,
            "Omega1": p.Omega1, "Omega2": p.Omega2,
            "lambda1": p.lambda1, "lambda2": p.lambda2,
            "mu_ex": p.mu_ex, "mu_coop": p.mu_coop,
            "N1": r.N1, "N2": r.N2,
            "alpha": [[float(z.real), float(z.imag)]
                      for z in s.initial.amplitudes],
            "t_max": s.t_max, "dt": s.dt, "label": s.label,
        }
        path = tmp_path / f"{name}.json"
        save_scenario(s, path)
        assert path.read_text() == json.dumps(expected, indent=2) + "\n"
        assert load_scenario(path) == s


def test_scenario_document_errors(tmp_path):
    d = scenario_to_dict(PRESETS["fig1-left"])
    missing = dict(d)
    del missing["omega1"]
    with pytest.raises(ScenarioError, match="missing key"):
        scenario_from_dict(missing)
    short_alpha = dict(d)
    short_alpha["alpha"] = d["alpha"][:3]
    with pytest.raises(ScenarioError):
        scenario_from_dict(short_alpha)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(bad)
    # a value of the wrong JSON type is an error naming its key, never
    # converted: a string, a bool, null, or an int past the largest float
    alpha = [list(pair) for pair in d["alpha"]]
    for key, value, message in (
            ("omega1", "1.0", "^omega1 must be a real number"),
            ("omega1", True, "^omega1 must be a real number"),
            ("N2", None, "^N2 must be a real number"),
            ("t_max", "0.5", "^t_max must be a real number"),
            ("dt", 10 ** 400, "^dt must be finite"),
            ("alpha", [["0.5", False]] + alpha[1:], r"^alpha\[0\]\[0\] must be a real"),
            ("alpha", [[0.5, False]] + alpha[1:], r"^alpha\[0\]\[1\] must be a real"),
            ("alpha", alpha[:3] + ["ab"], r"^alpha\[3\]\[0\] must be a real"),
            ("alpha", "abcd", "malformed scenario document"),
            ("label", None, "^label must be of type str"),
            ("mu_coop2", 1.0, r"^scenario document has unknown keys \['mu_coop2'\]$")):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict({**d, key: value})
    # a misspelt optional key is an error too, and every unknown key is
    # named, sorted
    lable = {k if k != "label" else "lable": v for k, v in d.items()}
    with pytest.raises(ScenarioError, match=r"unknown keys \['lable', 'mu_coop2'\]$"):
        scenario_from_dict({**lable, "mu_coop2": 1.0})
    # JSON integers are numbers
    whole = {**d, "omega1": 1, "N1": 0, "N2": 1, "t_max": 1,
             "alpha": [[1, 0], [0, 0], [0, 0], [0, 0]]}
    s = scenario_from_dict(whole)
    assert s.params.omega1 == 1.0 and s.t_max == 1.0
    assert s.initial == InitialState.basis_state(0, 0)


def test_scenario_file_encodings(tmp_path):
    # json detects UTF-16 from the bytes; bytes no encoding can read are
    # a ScenarioError naming the file
    doc = json.dumps(scenario_to_dict(PRESETS["fig1-left"]))
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(doc.encode("utf-16"))
    assert load_scenario(utf16) == PRESETS["fig1-left"]
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"a":1}')
    with pytest.raises(ScenarioError, match="bad.json") as info:
        load_scenario(bad)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)
