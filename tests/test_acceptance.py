"""Acceptance gate: the eight release criteria, one verdict line each.

Every test prints (and records for the terminal summary) a single
criterion line with the measured values and the pinned tolerances, then
asserts it.  Tolerances here are contractual; loosening them is a release
decision, not a test fix.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import expm

from conftest import grid_rows
from test_algebra import build_basis, car_residual
import qduet
from qduet.algebra import build_mode_operators, number_operators
from qduet.analysis import noise_metric
from qduet.dynamics import decision_series, make_times, propagator
from qduet.model import (
    InitialState,
    ModelParams,
    PRESETS,
    ReservoirState,
    Scenario,
    build_generator,
)
from qduet.oracle import ltp_residual, master_equation_n, propagator_residual

RESULTS: list[str] = []

NOISE_WINDOW = (0.05, 0.25)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


def test_criterion_1_operator_algebra():
    t0 = perf_counter()
    b1, b2 = build_mode_operators()
    car = car_residual([b1, b2])
    n1, n2 = number_operators(b1, b2)
    phi00, phi10, phi01, phi11 = build_basis()
    proj = lambda v: np.outer(v, v.conj())
    spectral = max(
        np.abs(n1 - (proj(phi10) + proj(phi11))).max(),
        np.abs(n2 - (proj(phi01) + proj(phi11))).max(),
    )
    elapsed = perf_counter() - t0
    ok = car <= 1e-14 and spectral <= 1e-14 and elapsed < 1.0
    report(1, ok,
           f"anticommutator residual {car:.2e} (tol 1e-14), spectral "
           f"decomposition deviation {spectral:.2e} (tol 1e-14), {elapsed:.2f} s")


def test_criterion_2_propagator():
    t0 = perf_counter()
    s = PRESETS["fig1-left"]
    U = build_generator(s.params)

    grid = propagator(U, s.t_max, 1e-4)
    # rows[k] = player rows of V(t_k)
    rows = grid_rows(grid).transpose(2, 0, 1)
    v0_dev = np.abs(rows[0] - np.eye(4)[:2]).max()
    semigroup = max(
        np.abs(rows[i] @ expm(1j * U * grid.times[j]) - rows[i + j]).max()
        for i, j in ((1234, 2345), (100, 4000), (2500, 2500), (1, 4999)))

    # the one-step semigroup defect of the grid's stacks, at rounding
    # scale on every dt (24.5 eps at most measured)
    eps = np.finfo(float).eps
    defect = max(propagator_residual(propagator(U, s.t_max, dt))
                 for dt in (2e-4, 1e-4, 5e-5))
    elapsed = perf_counter() - t0
    ok = (v0_dev <= 1e-12 and semigroup <= 1e-9 and defect <= 32 * eps
          and elapsed < 10.0)
    report(2, ok,
           f"V(0) deviation {v0_dev:.2e} (tol 1e-12), semigroup deviation "
           f"{semigroup:.2e} (tol 1e-9), propagator defect {defect / eps:.1f} eps "
           f"(tol 32 eps), {elapsed:.2f} s")


def test_criterion_3_closed_system_oracle():
    t0 = perf_counter()
    rng = np.random.default_rng(20260822)
    times = make_times(5.0, 0.01)
    worst = 0.0
    for _ in range(20):
        params = ModelParams(
            omega1=rng.uniform(-2, 2), omega2=rng.uniform(-2, 2),
            Omega1=1.0, Omega2=1.0, lambda1=0.0, lambda2=0.0,
            mu_ex=rng.uniform(-3, 3), mu_coop=rng.uniform(-3, 3))
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        initial = InitialState.from_amplitudes(vec)
        s = Scenario(params=params, reservoir=ReservoirState(0.0, 0.0),
                     initial=initial, t_max=5.0, dt=0.01, label="draw")
        # at lambda1 = lambda2 = 0 the Lindblad equation is the closed
        # Schrodinger evolution under H, sampled here at every grid point
        reference = master_equation_n(s, np.arange(len(times)))
        worst = max(worst, np.abs(decision_series(s).n - reference).max())

    mu = 1.7
    rabi_params = ModelParams(omega1=0.0, omega2=0.0, Omega1=1.0, Omega2=1.0,
                              lambda1=0.0, lambda2=0.0, mu_ex=mu, mu_coop=0.0)
    rabi = decision_series(Scenario(
        params=rabi_params, reservoir=ReservoirState(0.0, 0.0),
        initial=InitialState.basis_state(1, 0),
        t_max=5.0, dt=0.01, label="rabi"))
    rabi_dev = max(np.abs(rabi.n[:, 0] - np.cos(mu * times) ** 2).max(),
                   np.abs(rabi.n[:, 1] - np.sin(mu * times) ** 2).max())
    elapsed = perf_counter() - t0
    ok = worst <= 1e-8 and rabi_dev <= 1e-8 and elapsed < 30.0
    report(3, ok,
           f"closed-system master-equation deviation {worst:.2e} over 20 draws "
           f"(tol 1e-8), Rabi deviation {rabi_dev:.2e} (tol 1e-8), {elapsed:.2f} s")


def test_criterion_4_decoupled_closed_form():
    t0 = perf_counter()
    params = ModelParams(omega1=1.0, omega2=2.0, Omega1=0.1, Omega2=0.1,
                         lambda1=0.5, lambda2=0.0, mu_ex=0.0, mu_coop=0.0)
    gamma1 = params.gamma1
    t_max = round(10.0 / gamma1, 4)  # a whole number of dt = 1e-4 steps
    worst_curve = 0.0
    worst_tail = 0.0
    for N1 in (0.0, 0.5, 1.0):
        s = Scenario(params=params, reservoir=ReservoirState(N1, 0.0),
                     initial=InitialState.basis_state(1, 0),
                     t_max=t_max, dt=1e-4, label=f"decoupled-{N1}")
        series = decision_series(s)
        expected = (np.exp(-2.0 * gamma1 * series.times)
                    + N1 * (1.0 - np.exp(-2.0 * gamma1 * series.times)))
        worst_curve = max(worst_curve, np.abs(series.n[:, 0] - expected).max())
        worst_tail = max(worst_tail, abs(series.n[-1, 0] - N1))
    elapsed = perf_counter() - t0
    ok = worst_curve <= 1e-12 and worst_tail < 1e-3
    report(4, ok,
           f"relaxation curve deviation {worst_curve:.2e} (tol 1e-12), "
           f"asymptote deviation {worst_tail:.2e} (tol 1e-3), {elapsed:.2f} s")


def test_criterion_5_ltp_interference_identity(fig1_left, fig1_right):
    t0 = perf_counter()
    worst_identity = 0.0
    for series in (fig1_left, fig1_right):
        _, R = ltp_residual(series.scenario)
        worst_identity = max(worst_identity, np.abs(R - series.dmu).max())

    worst_basis = 0.0
    base = PRESETS["fig1-left"]
    for l in (0, 1):
        for k in (0, 1):
            s = dataclasses.replace(base, initial=InitialState.basis_state(k, l),
                                    label=f"basis{k}{l}")
            _, R = ltp_residual(s)
            worst_basis = max(worst_basis, np.abs(R).max())
    elapsed = perf_counter() - t0
    ok = worst_identity <= 1e-8 and worst_basis <= 1e-12
    report(5, ok,
           f"total-probability residual minus interference term "
           f"{worst_identity:.2e} (tol 1e-8), basis-state residual "
           f"{worst_basis:.2e} (tol 1e-12), {elapsed:.2f} s")


def test_criterion_6_phenomenology(fig1_left, fig1_right, fig6_left, fig6_right):
    t0 = perf_counter()

    def tail_mean(series):
        tail = series.n[int(0.8 * len(series.times)):]
        return tail.mean(axis=0)

    tail_gap = np.abs(tail_mean(fig1_left) - tail_mean(fig1_right)).max()

    noise_1l = noise_metric(fig1_left, NOISE_WINDOW)
    noise_1r = noise_metric(fig1_right, NOISE_WINDOW)
    noise_6l = noise_metric(fig6_left, NOISE_WINDOW)
    noise_6r = noise_metric(fig6_right, NOISE_WINDOW)
    ordering = noise_1r[0] > noise_1l[0] and noise_1r[1] > noise_1l[1]

    excess_fig1 = [(noise_1r[j] - noise_1l[j]) / noise_1l[j] for j in (0, 1)]
    excess_fig6 = [(noise_6r[j] - noise_6l[j]) / noise_6l[j] for j in (0, 1)]
    filtering = all(excess_fig6[j] < excess_fig1[j] for j in (0, 1))

    lo, hi = np.inf, -np.inf
    for name in PRESETS:
        series = decision_series(PRESETS[name])
        lo = min(lo, series.n.min())
        hi = max(hi, series.n.max())
    bounds_ok = lo >= -1e-8 and hi <= 1.0 + 1e-8

    elapsed = perf_counter() - t0
    ok = tail_gap <= 0.02 and ordering and filtering and bounds_ok and elapsed < 120.0
    report(6, ok,
           f"tail-mean gap {tail_gap:.2e} (tol 0.02), phased noise excess "
           f"{excess_fig1[0]:.1f}/{excess_fig1[1]:.1f} vs cooperative "
           f"{excess_fig6[0]:.2f}/{excess_fig6[1]:.2f} (ordering and filtering "
           f"{'hold' if ordering and filtering else 'fail'}), range "
           f"[{lo:.3f}, {hi:.3f}] within [-1e-8, 1+1e-8], {elapsed:.1f} s")


def test_criterion_7_determinism(tmp_path):
    t0 = perf_counter()
    # the child imports the same package the tests do
    src = str(Path(qduet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    # the second run asks for two BLAS threads: the thread count must not
    # change a byte either
    outputs = []
    for sub, run_env in (("a", env), ("b", {**env, "OPENBLAS_NUM_THREADS": "2"})):
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "qduet",
             "--preset", "fig2-right", "--out", str(out_dir)],
            capture_output=True, text=True, env=run_env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "fig2-right.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    elapsed = perf_counter() - t0
    report(7, identical,
           f"two command-line runs wrote {'byte-identical' if identical else 'DIFFERING'} "
           f"CSVs ({len(outputs[0])} bytes), {elapsed:.1f} s")


def test_criterion_8_free_evolution_null():
    t0 = perf_counter()
    params = ModelParams(omega1=1.0, omega2=2.0, Omega1=1.0, Omega2=1.0,
                         lambda1=0.0, lambda2=0.0, mu_ex=0.0, mu_coop=0.0)
    rng = np.random.default_rng(11)
    states = [InitialState(0.5j, -0.5j, 0.5, -0.5)]
    for _ in range(5):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(InitialState.from_amplitudes(vec / np.linalg.norm(vec)))
    worst = 0.0
    for idx, initial in enumerate(states):
        s = Scenario(params=params, reservoir=ReservoirState(0.5, 0.5),
                     initial=initial, t_max=1.0, dt=1e-3, label=f"free{idx}")
        series = decision_series(s)
        worst = max(worst, np.abs(series.n - series.n[0]).max())
    elapsed = perf_counter() - t0
    ok = worst <= 1e-12
    report(8, ok,
           f"free-evolution drift {worst:.2e} over 6 initial states "
           f"(tol 1e-12), {elapsed:.2f} s")
