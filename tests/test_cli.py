"""Command-line front end: flags, files, exit codes, determinism."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, empty_slots
from test_g17 import hard_values
from qduet import _g17, cli, oracle
from qduet.cli import CSV_HEADER, list_presets, main, write_csv, write_svg
from qduet.dynamics import DecisionSeries, decision_series, stationary_limit
from qduet.model import PRESETS, save_scenario, scenario_to_dict


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_presets_table(capsys):
    code, out, err = run_cli(["--list-presets"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("fig")]
    assert len(rows) == 8
    fig3 = [line for line in rows if line.startswith("fig3")]
    assert all("C2" in line and "100" in line for line in fig3)
    fig2 = [line for line in rows if line.startswith("fig2")]
    assert all(" 1 " in line for line in fig2)
    fig6 = [line for line in rows if line.startswith("fig6")]
    assert all("10" in line for line in fig6)


def test_run_preset_writes_outputs(tmp_path, capsys):
    code, out, err = run_cli(
        ["--preset", "fig6-left", "--out", str(tmp_path), "--svg"], capsys)
    assert code == 0, err
    csv_path = tmp_path / "fig6-left.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5002
    for j in (1, 2):
        svg = (tmp_path / f"fig6-left_n{j}.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
    assert "limit player 1" in out
    assert "decision player 2" in out


def test_run_quiet_without_csv(tmp_path, capsys):
    code, out, err = run_cli(
        ["--preset", "fig6-left", "--out", str(tmp_path), "--no-csv"], capsys)
    assert code == 0
    assert not (tmp_path / "fig6-left.csv").exists()


def test_csv_round_trip_is_exact(tmp_path):
    series = decision_series(PRESETS["fig6-left"])
    path = tmp_path / "series.csv"
    write_csv(path, series)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back[:, 0], series.times)
    assert np.array_equal(back[:, [1, 5]], series.n)
    assert np.array_equal(back[:, [2, 6]], series.mu)
    assert np.array_equal(back[:, [3, 7]], series.dmu)
    assert np.array_equal(back[:, [4, 8]], series.nB)


def test_cli_runs_are_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, err = run_cli(
            ["--preset", "fig6-right", "--out", str(out_dir)], capsys)
        assert code == 0, err
    assert (out_a / "fig6-right.csv").read_bytes() == \
           (out_b / "fig6-right.csv").read_bytes()


def test_scenario_file_round_trip(tmp_path, capsys):
    path = tmp_path / "custom.json"
    save_scenario(PRESETS["fig6-left"], path)
    code, out, err = run_cli(
        ["--scenario", str(path), "--out", str(tmp_path), "--t-max", "0.1"],
        capsys)
    assert code == 0, err
    lines = (tmp_path / "fig6-left.csv").read_text().splitlines()
    assert len(lines) == 1002


def test_missing_scenario_file(tmp_path, capsys):
    code, out, err = run_cli(
        ["--scenario", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert "not found" in err


def test_invalid_json_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = run_cli(["--scenario", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_scenario_file_in_no_json_encoding(tmp_path):
    # in a fresh interpreter, so that an uncaught exception would show
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"a":1}')
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "qduet", "--scenario", str(bad)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert re.search(r"^error: .*bad\.json", proc.stderr, re.M), proc.stderr
    assert "Traceback" not in proc.stderr


def test_grid_rule_violation_reports_required_dt(tmp_path, capsys):
    code, out, err = run_cli(
        ["--preset", "fig1-left", "--dt", "0.01", "--out", str(tmp_path)],
        capsys)
    assert code == 1
    assert "need dt" in err


def test_unknown_preset(capsys):
    code, out, err = run_cli(["--preset", "nope"], capsys)
    assert code == 1
    assert "invalid choice" in err and "fig1-left" in err


def test_no_source_given(capsys):
    code, out, err = run_cli([], capsys)
    assert code == 1


def test_bad_flag_is_config_error(capsys):
    code, out, err = run_cli(["--bogus"], capsys)
    assert code == 1


def test_oracle_and_ltp_reports(tmp_path, capsys):
    path = tmp_path / "closed.json"
    d = scenario_to_dict(PRESETS["fig6-left"])
    d.update(lambda1=0.0, lambda2=0.0, label="closed", t_max=0.2)
    path.write_text(json.dumps(d))
    code, out, err = run_cli(
        ["--scenario", str(path), "--out", str(tmp_path),
         "--oracle", "--ltp"], capsys)
    assert code == 0, err
    assert "propagator defect" in out
    form = re.search(r"^oracle: propagator defect .*\noracle: form defect (\S+)$", out, re.M)
    assert float(form.group(1)) <= 1e-13, out
    # at lambda1 = lambda2 = 0 the master equation is the closed evolution
    dev = re.search(r"^oracle: form defect \S+\noracle: master-equation deviation (\S+)$",
                    out, re.M)
    assert float(dev.group(1)) <= 1e-13, out
    assert (tmp_path / "closed_ltp.csv").exists()
    assert "max |R - dmu|" in out


def test_cooperation_exceptional_point_run(tmp_path, capsys):
    # omega = (1, -1), Gamma = (2, 1), mu_coop = |Gamma1 - Gamma2| / 2 and
    # mu_ex = 0: U has the double eigenvalues -1 + 1.5i and 1 + 1.5i.
    # cond(P) is 9.0e7 there, far above COND_LIMIT, so the run takes the
    # table route, and the three gates hold on it
    path = tmp_path / "coop.json"
    path.write_text(json.dumps({
        "omega1": 1.0, "omega2": -1.0, "Omega1": 1.0, "Omega2": 1.0,
        "lambda1": 0.7978845608028654, "lambda2": 0.5641895835477563,
        "mu_ex": 0.0, "mu_coop": 0.5, "N1": 0.0, "N2": 1.0,
        "alpha": [[0.5, 0.0]] * 4, "t_max": 5.0, "dt": 1e-3, "label": "coop"}))
    code, out, err = run_cli(["--scenario", str(path), "--oracle", "--ltp",
                              "--no-csv", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    defect = re.search(r"^oracle: propagator defect (\S+) at .* \(fallback\)$",
                       out, re.M)
    ident = re.search(r"^ltp: .*max \|R - dmu\|=(\S+)$", out, re.M)
    dev = re.search(r"^oracle: master-equation deviation (\S+)$", out, re.M)
    assert float(defect.group(1)) <= 1e-13, out
    assert float(ident.group(1)) <= 1e-14, out
    assert float(dev.group(1)) <= 1e-13, out


def test_unknown_scenario_keys_are_errors(tmp_path, capsys):
    # a misspelt key fails the run before any output is written
    path = tmp_path / "typo.json"
    d = scenario_to_dict(PRESETS["fig6-left"])
    d["lable"] = d.pop("label")
    d["mu_coop2"] = 1.0
    path.write_text(json.dumps(d))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["--scenario", str(path), "--out", str(out_dir)], capsys)
    assert code == 1
    assert re.search(r"^error: .*unknown keys \['lable', 'mu_coop2'\]$", err, re.M), err
    assert not out_dir.exists()


def test_limit_lines(tmp_path, capsys):
    # each player's exact limit, and the distance the run ends at; a
    # player with no damping has no certified limit
    s = PRESETS["fig3-left"]
    code, out, err = run_cli(["--preset", "fig3-left", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    limit = stationary_limit(s.params, s.reservoir)
    last = np.loadtxt(tmp_path / "fig3-left.csv", delimiter=",", skiprows=1)[-1, [1, 5]]
    lines = [l for l in out.splitlines() if l.startswith("limit player")]
    assert lines == [f"limit player {j}: n(inf)={limit[j - 1]:.6g} "
                     f"|n(t_max) - n(inf)|={abs(last[j - 1] - limit[j - 1]):.3g}"
                     for j in (1, 2)]
    assert lines[0] == "limit player 1: n(inf)=0.3287 |n(t_max) - n(inf)|=0.0171"
    for lambdas in ((0.0, 0.0), (0.5, 0.0)):
        path = tmp_path / "undamped.json"
        d = scenario_to_dict(PRESETS["fig6-left"])
        d.update(lambda1=lambdas[0], lambda2=lambdas[1], t_max=0.05)
        path.write_text(json.dumps(d))
        code, out, err = run_cli(["--scenario", str(path), "--no-csv"], capsys)
        assert code == 0, err
        assert [l for l in out.splitlines() if l.startswith("limit player")] == [
            f"limit player {j}: not certified (an undamped player)" for j in (1, 2)]
    # the tail statistics and their --tail setting are gone
    code, out, err = run_cli(["--preset", "fig3-left", "--tail", "0.2"], capsys)
    assert code == 1 and "unrecognized arguments: --tail" in err


@pytest.mark.parametrize("flags, message", [
    (["--window", "5"], "exceeds the run length"),
    (["--window", "0"], "window must be positive"),
    (["--window", "nan"], "window must be positive"),
    (["--epsilon", "-1"], "epsilon must be positive"),
    (["--epsilon", "nan"], "epsilon must be positive"),
    (["--window", "inf"], "window must be positive"),
    (["--all-presets", "--t-max", "0.2", "--window", "0.3"], "exceeds"),
    # dt 0.4 does not divide t_max 0.5, so the grid could not end at 0.5
    (["--t-max", "0.5", "--dt", "0.4", "--window", "0.5"],
     "the nearest valid t_max is 0.4"),
    # the grid of t_max 0.3 and dt 0.1 ends on 3 * 0.1; one ulp more is
    # past the run
    (["--t-max", "0.3", "--dt", "0.1", "--window", repr(math.nextafter(3 * 0.1, 1.0))],
     "exceeds the run length 0.30000000000000004"),
])
def test_bad_analysis_setting_is_config_error(tmp_path, capsys, flags, message):
    if "--all-presets" in flags:
        source = []
    elif "--dt" in flags:
        source = ["--scenario", slow_scenario(tmp_path)]
    else:
        source = ["--preset", "fig1-left"]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(source + flags + ["--out", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not out_dir.exists()


def slow_scenario(tmp_path):
    # rates small enough for dt = 0.4 to pass the grid rule
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        **scenario_to_dict(PRESETS["fig1-left"]),
        "omega1": 0.1, "omega2": 0.1, "Omega1": 1.0, "Omega2": 1.0,
        "lambda1": 0.1, "lambda2": 0.1, "mu_ex": 0.1}))
    return str(path)


def test_window_may_reach_the_last_grid_point(tmp_path, capsys):
    code, out, err = run_cli(
        ["--scenario", slow_scenario(tmp_path), "--t-max", "0.3", "--dt", "0.1",
         "--window", repr(3 * 0.1), "--no-csv"], capsys)
    assert code == 0, err
    assert out.count("window=0.3)") == 2


@pytest.mark.parametrize("argv", [
    ["--all-presets", "--preset", "fig1-left"],
    # --list-presets is a source of its own, so it takes no other
    ["--list-presets", "--preset", "fig1-left"],
    ["--list-presets", "--preset", "nope"],
    ["--list-presets", "--all-presets"],
    ["--list-presets", "--scenario", "x.json"],
], ids=" ".join)
def test_all_presets_conflicts_with_single_source(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and list_presets() not in err


def test_each_run_builds_one_propagator(tmp_path, capsys, monkeypatch):
    # a run context is (params, t_max, dt, reservoir): the run, --oracle
    # and the four LTP conditionals share its grid and its one bath solve.
    # Each distinct run is assembled once (one mu_player call each): --ltp
    # reuses the run itself, and fig*-right reuses fig*-left's conditional
    # runs.  The eight presets hold four contexts.  U is built once per
    # context, for its grid, and the bath solve and --oracle read the
    # grid's copy; each run's limit line builds it once more, since
    # stationary_limit needs no grid
    names = ("propagator", "mu_player", "bath_contribution", "build_generator")
    counts = count_calls(monkeypatch, *names)
    common = ["--t-max", "0.05", "--no-csv", "--out", str(tmp_path)]
    one = ["--preset", "fig6-left"]
    for argv, expected in ((one, (1, 1, 1, 2)),
                           (one + ["--ltp", "--oracle"], (1, 5, 1, 2)),
                           (["--all-presets", "--ltp"], (4, 24, 4, 12))):
        empty_slots()
        counts.clear()
        code, _, err = run_cli(argv + common, capsys)
        assert code == 0, err
        assert tuple(counts[name] for name in names) == expected
    empty_slots()
    counts.clear()
    oracle.ltp_residual(PRESETS["fig6-right"])
    assert tuple(counts[name] for name in names) == (1, 5, 1, 1)


def test_grid_too_large_is_config_error(tmp_path, capsys):
    # 10^7 points: the run would keep up to 2 GB
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["--preset", "fig3-left", "--t-max", "1000",
                              "--out", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error:") and "10000001 points" in err
    assert not out_dir.exists()


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e300, -1e300,
                  -1e-300, -1e-17, 1.0, -3.0, 2.0 ** 53, 0.1, float("nan"),
                  float("inf"), float("-inf")]
table_values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(),
                         st.integers(-10 ** 6, 10 ** 6).map(float),
                         st.sampled_from(hard_values().tolist()))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@pytest.mark.parametrize("block", [cli._BLOCK_ROWS, 7], ids=str)
@given(ncols=st.integers(1, 3),
       rows=st.sampled_from(["one", "block-1", "block", "block+1", "ragged"]),
       pool=st.lists(table_values, min_size=1, max_size=16),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=40)
def test_write_table_matches_savetxt_bytes(table_dir, block, ncols, rows, pool, seed):
    n = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
         "ragged": 3 * block + block // 2 + 1}[rows]
    data = np.random.default_rng(seed).choice(np.array(pool), size=(n, ncols))
    header = ",".join("tab"[:ncols])
    ours, ref = table_dir / "ours.csv", table_dir / "ref.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_ROWS", block)
        cli._write_table(ours, header, [data[:, k] for k in range(ncols)])
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=header, comments="")
    assert ours.read_bytes() == ref.read_bytes()


def test_interrupted_table_write_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    # an interrupt after the first block propagates, and the table's path
    # is left as it was: absent, or with its old bytes, and no stray file
    format_values, calls = _g17.format_values, []

    def interrupted(values, ends):
        calls.append(len(values))
        if len(calls) == 2:
            raise KeyboardInterrupt
        return format_values(values, ends)
    monkeypatch.setattr(_g17, "format_values", interrupted)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 100)
    path = tmp_path / "broken.csv"
    for old in (None, b"t\n1\n"):
        calls.clear()
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(KeyboardInterrupt):
            cli._write_table(path, "t", [np.arange(300.0)])
        assert calls == [100, 100]
        if old is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == ([] if old is None else [path])


def test_table_file_gets_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.csv"
    open(plain, "w").close()
    path = tmp_path / "table.csv"
    cli._write_table(path, "t", [np.arange(3.0)])
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(tmp_path.iterdir()) == [plain, path]


def test_failed_chart_write_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    # the disk fills up in the middle of the polyline: the chart's path is
    # left as it was, absent or with its old bytes, and no stray file
    real_open = open

    class FillsUp:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
    monkeypatch.setattr(cli, "open", lambda *a, **k: FillsUp(real_open(*a, **k)),
                        raising=False)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    times = np.linspace(0.0, 1.0, 50)
    path = tmp_path / "chart.svg"
    for old in (None, b"<svg/>\n"):
        if old is not None:
            path.write_bytes(old)
        with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
            write_svg(path, times, times ** 2, title="n1", ylabel="n1")
        if old is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == ([] if old is None else [path])


def test_write_svg_matches_per_point_reference(tmp_path, fig6_left):
    times, values = fig6_left.times, fig6_left.n[:, 0]
    title, ylabel = "a & b <c> n1(t)", "n<1> & more"
    path = tmp_path / "chart.svg"
    write_svg(path, times, values, title=title, ylabel=ylabel)
    svg = path.read_text()
    # the chart frame and the per-point formulas write_svg is defined by
    left, right, top, bottom = 70.0, 615.0, 30.0, 355.0
    t0, t1 = float(times[0]), float(times[-1])
    y0, y1 = min(0.0, float(values.min())), max(1.0, float(values.max()))

    def sx(t):
        return left + (t - t0) / (t1 - t0) * (right - left)

    def sy(v):
        return bottom - (v - y0) / (y1 - y0) * (bottom - top)

    expected = " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}"
                        for t, v in zip(times, values))
    assert re.findall(r'points="([^"]*)"', svg) == [expected]
    assert f">{escape(title)}</text>" in svg
    assert f">{escape(ylabel)}</text>" in svg
    assert title not in svg and ylabel not in svg


def test_cli_import_loads_no_network_modules():
    # the CLI escapes SVG text itself; xml.sax.saxutils would pull these in
    src = str(Path(cli.__file__).resolve().parents[1])
    banned = ("urllib.request", "http.client", "email", "xml.sax")
    code = (f"import sys; sys.path.insert(0, {src!r}); import qduet.cli; "
            f"print(sorted(m for m in sys.modules if any(m == b or "
            f"m.startswith(b + '.') for b in {banned!r})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def thread_probe(first: str, **thread_env) -> dict:
    """Import `first` and then qduet in a fresh interpreter whose BLAS
    thread variables are exactly thread_env; report the OS thread count
    after each import and whether qduet left os.environ as it was."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    code = f"""
import json, os, re, sys
sys.path.insert(0, {src!r})
def threads():
    status = open("/proc/self/status").read()
    return int(re.search(r"^Threads:\\s*(\\d+)", status, re.M).group(1))
import {first}
before, environ = threads(), dict(os.environ)
import qduet
print(json.dumps({{"before": before, "after": threads(),
                  "environ_kept": dict(os.environ) == environ,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "cpus": len(os.sched_getaffinity(0))}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**env, **thread_env})
    return json.loads(proc.stdout)


def uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in json.dumps(blas).lower()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
@pytest.mark.skipif(not uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_import_loads_numpy_with_one_blas_thread():
    # qduet first: one thread, and os.environ as it was
    first = thread_probe("sys")
    assert first["after"] == 1
    assert first["environ_kept"]
    # a count the user sets wins
    chosen = thread_probe("sys", OPENBLAS_NUM_THREADS="2")
    assert chosen["openblas"] == "2"
    assert chosen["environ_kept"]
    if chosen["cpus"] >= 2:
        assert chosen["after"] > 1
    # numpy first: qduet changes nothing
    numpy_first = thread_probe("numpy")
    assert numpy_first["after"] == numpy_first["before"]
    assert numpy_first["environ_kept"]
    assert numpy_first["openblas"] is None


def traced_peak(write, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        write(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_streams_a_long_table(tmp_path):
    # nt=200001 (fig3-left at t_max=20): the table itself is 14.4 MB
    nt = 200001
    rng = np.random.default_rng(3)
    series = DecisionSeries(times=np.linspace(0.0, 20.0, nt),
                            mu=rng.random((nt, 2)), dmu=rng.random((nt, 2)),
                            nB=rng.random((nt, 2)), n=rng.random((nt, 2)))
    path = tmp_path / "long.csv"
    assert traced_peak(write_csv, path, series) < 4e6
    with open(path) as fh:
        lines = sum(1 for _ in fh)
    assert lines == nt + 1


def test_write_svg_streams_a_long_polyline(tmp_path):
    # formatted in one piece, this polyline peaked at 6.0 MB (23.8 MB at
    # nt=200001); in blocks the peak is ~0.17 MB at any nt
    nt = 50001
    times = np.linspace(0.0, 5.0, nt)
    values = np.random.default_rng(4).random(nt)
    path = tmp_path / "long.svg"
    assert traced_peak(write_svg, path, times, values, title="n1", ylabel="n1") < 1e6
    points = re.findall(r'points="([^"]*)"', path.read_text())
    assert len(points) == 1 and points[0].count(" ") == nt - 1
