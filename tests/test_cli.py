"""Command-line front end: flags, files, exit codes, determinism."""

import json
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

from conftest import empty_slots
from qduet import cli, dynamics, oracle
from qduet.cli import CSV_HEADER, list_presets, main, read_csv, write_csv, write_svg
from qduet.dynamics import DecisionSeries, bath_contribution, decision_series, propagator
from qduet.model import PRESETS, ScenarioError, save_scenario, scenario_to_dict


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
    assert "asymptotics player 1" in out
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
    back = read_csv(path)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.n, series.n)
    assert np.array_equal(back.mu, series.mu)
    assert np.array_equal(back.dmu, series.dmu)
    assert np.array_equal(back.nB, series.nB)


ROW = ",".join(["0.5"] * 9)


@pytest.mark.parametrize("text, message", [
    (f"t,n1,n2\n{ROW}", "not a decision-series CSV"),
    (f"{CSV_HEADER}\nabc{ROW[3:]}", None),
    (f"{CSV_HEADER}\n{ROW}\n{ROW[:-4]}", None),
    (f"{CSV_HEADER}\n{ROW[:-4]}", "expected 9 columns"),
    (CSV_HEADER, "no data rows"),
], ids=["wrong-header", "non-numeric-cell", "short-row", "8-columns",
        "header-only"])
@pytest.mark.filterwarnings("error")
def test_read_csv_rejects_malformed_tables(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text + "\n")
    with pytest.raises(ScenarioError, match=message):
        read_csv(path)


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


def test_grid_rule_violation_reports_required_dt(tmp_path, capsys):
    code, out, err = run_cli(
        ["--preset", "fig1-left", "--dt", "0.01", "--out", str(tmp_path)],
        capsys)
    assert code == 1
    assert "need dt" in err


def test_unknown_preset(capsys):
    code, out, err = run_cli(["--preset", "nope"], capsys)
    assert code == 1
    assert "unknown preset" in err


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
    assert "closed-system deviation" in out
    assert (tmp_path / "closed_ltp.csv").exists()
    assert "max |R - dmu|" in out
    dev_line = [l for l in out.splitlines() if "closed-system deviation" in l][0]
    assert float(dev_line.rsplit(" ", 1)[1]) < 1e-8


@pytest.mark.parametrize("flags, message", [
    (["--window", "5"], "exceeds the run length"),
    (["--window", "0"], "window must be positive"),
    (["--window", "nan"], "window must be positive"),
    (["--epsilon", "-1"], "epsilon must be positive"),
    (["--epsilon", "nan"], "epsilon must be positive"),
    (["--tail", "2"], "--tail"),
    (["--all-presets", "--t-max", "0.2", "--window", "0.3"], "exceeds"),
    # dt 0.4 does not divide t_max 0.5, so the grid could not end at 0.5
    (["--t-max", "0.5", "--dt", "0.4", "--window", "0.5"],
     "the nearest valid t_max is 0.4"),
])
def test_bad_analysis_setting_is_config_error(tmp_path, capsys, flags, message):
    if "--all-presets" in flags:
        source = []
    elif "--dt" in flags:
        # rates small enough for dt = 0.4 to pass the grid rule
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({
            **scenario_to_dict(PRESETS["fig1-left"]),
            "omega1": 0.1, "omega2": 0.1, "Omega1": 1.0, "Omega2": 1.0,
            "lambda1": 0.1, "lambda2": 0.1, "mu_ex": 0.1}))
        source = ["--scenario", str(path)]
    else:
        source = ["--preset", "fig1-left"]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(source + flags + ["--out", str(out_dir)], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not out_dir.exists()


def test_all_presets_conflicts_with_single_source(capsys):
    code, out, err = run_cli(["--all-presets", "--preset", "fig1-left"], capsys)
    assert code == 1


def test_each_run_builds_one_propagator(tmp_path, capsys, monkeypatch):
    # the run, --oracle and the four LTP conditionals share one grid; each
    # distinct run is assembled once (one bath_contribution call each):
    # --ltp reuses the run itself, and fig*-right reuses fig*-left's
    # conditional runs
    builds, assemblies = [], []

    def counting(*args, **kwargs):
        builds.append(1)
        return propagator(*args, **kwargs)

    def counting_bath(*args):
        assemblies.append(1)
        return bath_contribution(*args)

    monkeypatch.setattr(dynamics, "propagator", counting)
    monkeypatch.setattr(dynamics, "bath_contribution", counting_bath)
    common = ["--t-max", "0.05", "--no-csv", "--out", str(tmp_path)]
    one = ["--preset", "fig6-left"]
    for argv, n_builds, n_assemblies in ((one, 1, 1),
                                         (one + ["--ltp", "--oracle"], 1, 5),
                                         (["--all-presets", "--ltp"], 3, 24)):
        empty_slots()
        builds.clear()
        assemblies.clear()
        code, _, err = run_cli(argv + common, capsys)
        assert code == 0, err
        assert (len(builds), len(assemblies)) == (n_builds, n_assemblies)
    empty_slots()
    builds.clear()
    assemblies.clear()
    oracle.ltp_residual(PRESETS["fig6-right"])
    assert (len(builds), len(assemblies)) == (1, 5)


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
                         st.integers(-10 ** 6, 10 ** 6).map(float))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@pytest.mark.parametrize("block", [cli._BLOCK_ROWS, 7])
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


def test_write_csv_streams_a_long_table(tmp_path):
    # nt=200001 (fig3-left at t_max=20): the table itself is 14.4 MB
    nt = 200001
    rng = np.random.default_rng(3)
    series = DecisionSeries(times=np.linspace(0.0, 20.0, nt),
                            mu=rng.random((nt, 2)), dmu=rng.random((nt, 2)),
                            nB=rng.random((nt, 2)), n=rng.random((nt, 2)))
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        write_csv(path, series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    with open(path) as fh:
        lines = sum(1 for _ in fh)
    assert lines == nt + 1
