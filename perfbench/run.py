"""qduet benchmark: end-to-end and per-layer metrics on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this directory.
Each sample runs in a fresh child interpreter (child.py), one at a time,
in a closed loop with a single client, until S seconds have passed.
Every output is checked against an independent reference (reference.py,
checks.py); a run whose outputs fail counts those operations as failed.

With --trace 0 the run reports the end-to-end metrics as medians over its
samples.  With --trace 1 it alternates traced and untraced samples and
reports per-layer metrics from the spans of the traced ones (tracer.py)
and from `python -X importtime`.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# no sample starts after this many seconds, and a child still running at
# KILL_AFTER is killed, so a run ends within the 180 s it is allowed
START_BUDGET = 120.0
KILL_AFTER = 165.0
MIN_SETUP_SAMPLES = 7
V_BYTES_PER_POINT = 16 * 16   # 4x4 complex128 propagator per grid point

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "accuracy_digits": "digits",
}
PER_LAYER = {
    "model.validate_s": "s", "model.load_scenario_s": "s",
    "dynamics.propagator_s": "s", "dynamics.propagator_calls": "count",
    "dynamics.fallback_share": "ratio", "dynamics.mu_player_s": "s",
    "dynamics.delta_mu_s": "s", "dynamics.bath_s": "s",
    "dynamics.decision_series_self_s": "s", "dynamics.V_bytes": "B_computed",
    "analysis.decision_time_s": "s", "analysis.asymptotics_s": "s",
    "analysis.noise_metric_s": "s", "oracle.ltp_residual_self_s": "s",
    "oracle.decision_series_calls": "count", "oracle.propagator_residual_s": "s",
    "cli.write_csv_s": "s", "cli.write_csv_bytes": "B", "cli.write_svg_s": "s",
    "cli.write_svg_bytes": "B", "cli.run_one_self_s": "s",
    "import.scipy_s": "s", "import.qduet_self_s": "s", "trace.overhead_s": "s",
}
EXACT_COUNTS = ("dynamics.propagator_calls", "dynamics.fallback_share",
                "dynamics.V_bytes", "oracle.decision_series_calls",
                "cli.write_csv_bytes", "cli.write_svg_bytes")

sys.path.insert(0, str(HERE))
from checks import (  # noqa: E402
    LTP_TOL, accuracy_digits, cli_scenario_errors, series_errors, split_report)
from reference import Propagation, amplitudes  # noqa: E402


# ---------------------------------------------------------------- inputs

def _params(omega, Omega, lam, mu_ex, mu_coop, N) -> dict:
    return {"omega1": omega[0], "omega2": omega[1], "Omega1": Omega[0],
            "Omega2": Omega[1], "lambda1": lam[0], "lambda2": lam[1],
            "mu_ex": mu_ex, "mu_coop": mu_coop, "N1": N[0], "N2": N[1]}


def _scenario(params: dict, alpha, t_max: float, dt: float, label: str) -> dict:
    return {**params, "alpha": [[float(np.real(a)), float(np.imag(a))] for a in alpha],
            "t_max": t_max, "dt": dt, "label": label}


# the paper's built-in cases, as documented by `qduet --list-presets`
C1 = ((1.0, 2.0), (0.1, 0.1), (0.5, 0.5))
C2 = ((0.1, 0.2), (1.0, 1.0), (1.0, 0.7))
ALPHA1 = (0.5, 0.5, 0.5, 0.5)
ALPHA2 = (0.5j, -0.5j, 0.5, -0.5)
PRESETS = {
    f"fig{fig}-{side}": _scenario(_params(*base, mu_ex, mu_coop, N), alpha,
                                  0.5, 1e-4, f"fig{fig}-{side}")
    for fig, base, mu_ex, mu_coop, N in ((1, C1, 500.0, 0.0, (0.0, 1.0)),
                                         (2, C1, 500.0, 0.0, (1.0, 1.0)),
                                         (3, C2, 100.0, 0.0, (0.0, 1.0)),
                                         (6, C1, 10.0, 10.0, (0.0, 1.0)))
    for side, alpha in (("left", ALPHA1), ("right", ALPHA2))
}


def exceptional_point(seed: int) -> dict:
    """Equal inertias, Gamma = (2, 1), mu_ex = (Gamma1 - Gamma2)/2: U is defective.

    The seed sets only the relative phases of four equal-weight amplitudes.
    """
    g = (2.0, 1.0)
    params = _params((1.0, 1.0), (1.0, 1.0), tuple(math.sqrt(x / math.pi) for x in g),
                     (g[0] - g[1]) / 2.0, 0.0, (0.0, 1.0))
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 3)
    alpha = 0.5 * np.exp(1j * np.concatenate([[0.0], phases]))
    return _scenario(params, alpha, 5.0, 1e-3, f"ep-{seed}")


# ---------------------------------------------------------------- children

@dataclass
class Sample:
    status: int
    wall: float          # spawn to exit, with every file written
    setup: float | None  # spawn to the return of `import qduet`
    cpu: float           # user + sys of the child, from wait4
    rss_mb: float        # ru_maxrss of the child, from wait4
    meta: dict
    stdout: str
    stderr: str
    out_dir: Path
    traced: bool = False
    failed: int = 0                      # operations that failed their checks
    messages: list[str] = field(default_factory=list)
    max_error: float = math.inf          # max |n - n_ref| over the sample times


class Runner:
    """Spawns children one at a time and kills any that outlive the run."""

    def __init__(self, work: Path):
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, args: list[str], traced: bool = False,
              command: list[str] | None = None) -> Sample:
        """Run `child.py META *args` (or `command`) in a fresh output directory."""
        self.count += 1
        out = self.work / f"s{self.count}"
        out.mkdir(parents=True)
        meta_path = out / "meta.json"
        if command is None:
            command = [sys.executable, *(["-X", "importtime"] if traced else []),
                       str(CHILD), str(meta_path), *args]
        command = [a.replace("{out}", str(out)) for a in command]
        with open(out / "stdout", "w") as fo, open(out / "stderr", "w") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(command, stdout=fo, stderr=fe, cwd=out, env=self.env)
            killer = threading.Timer(max(KILL_AFTER - self.elapsed(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            meta = {}
        setup = meta["imported"] - t0 if "imported" in meta else None
        return Sample(status=proc.returncode, wall=wall, setup=setup,
                      cpu=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, meta=meta,
                      stdout=(out / "stdout").read_text(),
                      stderr=(out / "stderr").read_text(), out_dir=out,
                      traced=traced)


# ---------------------------------------------------------------- workloads

class CliWorkload:
    """One cold `qduet` command per sample; one operation per scenario."""

    def __init__(self, scenarios: list[dict], flags: list[str]):
        self.scenarios = [(d, Propagation(d).reference(d)) for d in scenarios]
        self.flags = flags

    @property
    def operations(self) -> int:
        return len(self.scenarios)

    def args(self, traced: bool) -> list[str]:
        return ["cli", "1" if traced else "0", *self.flags, "--out", "{out}"]

    def wall(self, s: Sample) -> float:
        return s.wall

    def cpu(self, s: Sample) -> float:
        return s.cpu

    def check(self, s: Sample) -> tuple[int, list[str], float]:
        """(operations failed, failure messages, max |n - n_ref|)."""
        if s.status != 0:
            return self.operations, [f"exit status {s.status}: {s.stderr[-300:]}"], math.inf
        blocks = split_report(s.stdout)
        failed, messages, worst = 0, [], 0.0
        for d, ref in self.scenarios:
            errors, err = cli_scenario_errors(
                s.out_dir, d["label"], blocks.get(d["label"], []), d, ref,
                ltp="--ltp" in self.flags, svg="--svg" in self.flags,
                oracle="--oracle" in self.flags)
            worst = max(worst, err)
            if errors:
                failed += 1
                messages += [f"{d['label']}: {e}" for e in errors]
        return failed, messages, worst


class SweepWorkload:
    """Warm in-process phase sweep in one child; one operation per phase."""

    NOISE_WINDOW = (0.05, 0.25)   # mid-transient window of scripts/interference_scan.py

    def __init__(self, seed: int, path: Path, base: dict = PRESETS["fig1-left"],
                 steps: int = 32):
        thetas = np.random.default_rng(seed).uniform(0.0, np.pi / 2, steps)
        self.scenarios = [
            _scenario(base, np.exp(1j * th) * np.array([0.5, -0.5, 0, 0]) + [0, 0, 0.5, -0.5],
                      base["t_max"], base["dt"], f"sweep-{k}")
            for k, th in enumerate(thetas)]
        self.path = path
        self.path.write_text(json.dumps({"noise_window": self.NOISE_WINDOW,
                                         "scenarios": self.scenarios}))
        propagation = Propagation(base)
        self.refs = [propagation.reference(d) for d in self.scenarios]

    @property
    def operations(self) -> int:
        return len(self.scenarios)

    def args(self, traced: bool) -> list[str]:
        return ["sweep", "1" if traced else "0", str(self.path), "{out}/sweep.npz"]

    def wall(self, s: Sample) -> float:
        return s.meta.get("loop_wall", math.nan)

    def cpu(self, s: Sample) -> float:
        return s.meta.get("loop_cpu", math.nan)

    def check(self, s: Sample) -> tuple[int, list[str], float]:
        if s.status != 0:
            return self.operations, [f"exit status {s.status}: {s.stderr[-300:]}"], math.inf
        try:
            with np.load(s.out_dir / "sweep.npz") as f:
                out = {k: f[k] for k in f.files}
            times = out["times"]
        except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            return self.operations, [f"sweep output: {exc!r}"], math.inf
        mask = (times >= self.NOISE_WINDOW[0]) & (times <= self.NOISE_WINDOW[1])
        failed, messages, worst = 0, [], 0.0
        for k, (d, ref) in enumerate(zip(self.scenarios, self.refs)):
            try:
                errors, err = series_errors(times, out["mu"][k], out["dmu"][k],
                                            out["nB"][k], out["n"][k], ref,
                                            amplitudes(d), d["dt"])
                R_dev = np.abs(out["R"][k] - out["dmu"][k]).max()
                if not R_dev <= LTP_TOL:
                    errors.append(f"LTP residual misses dmu by {R_dev:.3g}")
                noise = out["n"][k][mask].std(axis=0)
                if not np.allclose(out["noise"][k], noise, rtol=1e-12, atol=1e-15):
                    errors.append(f"noise {out['noise'][k]} != std {noise}")
            except (IndexError, KeyError, ValueError) as exc:
                errors, err = [f"malformed output: {exc}"], math.inf
            worst = max(worst, err)
            if errors:
                failed += 1
                messages += [f"{d['label']}: {e}" for e in errors]
        return failed, messages, worst


WORKLOADS = ("presets", "long-horizon", "phase-sweep", "exceptional-point")


def make_workload(name: str, seed: int, work: Path):
    if name == "presets":
        return CliWorkload(list(PRESETS.values()),
                           ["--all-presets", "--svg", "--ltp", "--oracle"])
    if name == "long-horizon":
        return CliWorkload([{**PRESETS["fig3-left"], "t_max": 20.0}],
                           ["--preset", "fig3-left", "--t-max", "20"])
    if name == "phase-sweep":
        return SweepWorkload(seed, work / "sweep.json")
    d = exceptional_point(seed)
    path = work / "ep.json"
    path.write_text(json.dumps(d))
    return CliWorkload([d], ["--scenario", str(path), "--ltp", "--oracle"])


# ---------------------------------------------------------------- self-test

def self_test(runner: Runner) -> list[str]:
    """Feed the checker good and bad outputs; return its misses.

    A small CLI run and a two-step sweep must pass.  Corrupted copies of
    their files and a child that exits with status 2 must each fail.
    """
    d = _scenario(_params(*C1, 10.0, 10.0, (0.0, 1.0)), ALPHA2, 0.5, 1e-3, "selftest")
    path = runner.work / "selftest.json"
    path.write_text(json.dumps(d))
    wl = CliWorkload([d], ["--scenario", str(path), "--ltp", "--oracle"])
    sweep = SweepWorkload(0, runner.work / "selftest-sweep.json", base=d, steps=2)
    good = runner.spawn(wl.args(False))
    good_sweep = runner.spawn(sweep.args(False))
    for workload, sample in ((wl, good), (sweep, good_sweep)):
        failed, messages, _ = workload.check(sample)
        if failed:
            return [f"checker rejects a good output: {messages[:3]}"]

    def truncated(content: bytes) -> bytes:
        return content[: len(content) // 2]

    csv = good.out_dir / "selftest.csv"
    rows = csv.read_text().splitlines()
    data = np.loadtxt(rows[1:], delimiter=",")
    data[:, 4] += 1e-3
    shifted = "\n".join([rows[0]] + [",".join(f"{x:.17g}" for x in row) for row in data])
    npz = good_sweep.out_dir / "sweep.npz"
    with np.load(npz) as f:
        arrays = {k: f[k] for k in f.files}
    cases = [(wl, good, csv, "CSV with nB shifted by 1e-3", (shifted + "\n").encode()),
             (wl, good, csv, "truncated CSV", truncated(csv.read_bytes()))]
    for key in ("R", "noise"):
        buffer = io.BytesIO()
        np.savez(buffer, **{**arrays, key: arrays[key] + 1e-3})
        cases.append((sweep, good_sweep, npz, f"sweep with {key} shifted by 1e-3",
                      buffer.getvalue()))
    cases.append((sweep, good_sweep, npz, "truncated sweep file", truncated(npz.read_bytes())))

    problems = []
    for workload, sample, target, what, content in cases:
        target.write_bytes(content)
        if not workload.check(sample)[0]:
            problems.append(f"checker accepts a {what}")
    exit2 = runner.spawn([], command=[sys.executable, "-c", "raise SystemExit(2)"])
    if not wl.check(exit2)[0]:
        problems.append("checker accepts a child that exits with status 2")
    return problems


# ---------------------------------------------------------------- metrics

def layer_metrics(spans: list, importtime: str) -> dict[str, float]:
    """Per-layer totals of one traced sample.

    `_s` metrics are inclusive span time; `_self_s` subtract the child
    spans, except that run_one keeps the propagator it rebuilds for
    --oracle in its self time.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    children = defaultdict(float)
    children_but_propagator = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
            if name != "dynamics.propagator":
                children_but_propagator[parent] += end - start
    for i, (name, start, end, parent, info) in enumerate(spans):
        total[name] += end - start
        subtract = children_but_propagator if name == "cli.run_one" else children
        self_time[name] += end - start - subtract[i]
    props = [info for name, *_, info in spans if name == "dynamics.propagator"]

    def file_bytes(target: str) -> int:
        return sum(info["bytes"] for name, *_, info in spans if name == target)

    imports = defaultdict(float)
    for line in importtime.splitlines():
        if line.startswith("import time:") and "|" in line:
            cells = line[len("import time:"):].split("|")
            if cells[0].strip().isdigit():
                package = cells[2].strip().split(".")[0]
                imports[package] += int(cells[0]) * 1e-6

    return {
        "model.validate_s": total["model.validate_scenario"],
        "model.load_scenario_s": total["model.load_scenario"],
        "dynamics.propagator_s": total["dynamics.propagator"],
        "dynamics.propagator_calls": len(props),
        "dynamics.fallback_share":
            sum(p["fallback"] for p in props) / len(props) if props else 0.0,
        "dynamics.mu_player_s": total["dynamics.mu_player"],
        "dynamics.delta_mu_s": total["dynamics.delta_mu"],
        "dynamics.bath_s": total["dynamics.bath_contribution"],
        "dynamics.decision_series_self_s": self_time["dynamics.decision_series"],
        "dynamics.V_bytes": sum(p["nt"] for p in props) * V_BYTES_PER_POINT,
        "analysis.decision_time_s": total["analysis.decision_time"],
        "analysis.asymptotics_s": total["analysis.asymptotics"],
        "analysis.noise_metric_s": total["analysis.noise_metric"],
        "oracle.ltp_residual_self_s": self_time["oracle.ltp_residual"],
        "oracle.decision_series_calls": sum(
            1 for name, _, _, parent, _ in spans
            if name == "dynamics.decision_series" and parent >= 0
            and spans[parent][0] == "oracle.ltp_residual"),
        "oracle.propagator_residual_s": total["oracle.propagator_residual"],
        "cli.write_csv_s": total["cli.write_csv"],
        "cli.write_csv_bytes": file_bytes("cli.write_csv"),
        "cli.write_svg_s": total["cli.write_svg"],
        "cli.write_svg_bytes": file_bytes("cli.write_svg"),
        "cli.run_one_self_s": self_time["cli.run_one"],
        "import.scipy_s": imports["scipy"],
        "import.qduet_self_s": imports["qduet"],
    }


def environment(seed: int, samples: list[Sample]) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    threads = [s.meta["threads"] for s in samples if s.meta.get("threads")]
    return {
        "seed": seed, "commit": commit or None,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "child_threads_max": max(threads) if threads else None,
    }


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


# ---------------------------------------------------------------- main loop

def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work)
    runner.spawn(["import", "0"])   # compiles bytecode, warms the file cache
    workload = make_workload(name, seed, work)
    problems = [f"self-test: {p}" for p in self_test(runner)]

    samples: list[Sample] = []
    t_start = runner.elapsed()
    last = 0.0
    while True:
        untraced = sum(not s.traced for s in samples)
        traced_n = len(samples) - untraced
        minimum = min(traced_n, untraced) >= 2 if trace else untraced >= 1
        # start a sample only if it is expected to end within the time given
        if minimum and (runner.elapsed() - t_start + last > seconds
                        or runner.elapsed() + last > START_BUDGET):
            break
        traced = trace and traced_n <= untraced
        t0 = runner.elapsed()
        s = runner.spawn(workload.args(traced), traced=traced)
        s.failed, s.messages, s.max_error = workload.check(s)
        shutil.rmtree(s.out_dir)
        samples.append(s)
        last = runner.elapsed() - t0

    plain = [s for s in samples if not s.traced]
    attempted = workload.operations * len(samples)
    failed = sum(s.failed for s in samples)
    for s in samples:
        problems += s.messages[:5]

    lines = [f"workload {name} seed {seed} trace {int(trace)}: {len(samples)} samples "
             f"({len(plain)} untraced), closed loop, 1 client"]
    if not trace:
        setups = [s.setup for s in plain if s.setup is not None]
        while len(setups) < MIN_SETUP_SAMPLES and runner.elapsed() < START_BUDGET:
            extra = runner.spawn(["import", "0"])
            shutil.rmtree(extra.out_dir)
            if extra.setup is not None:
                setups.append(extra.setup)
        series = {
            "setup_s": setups,
            "wall_s": [workload.wall(s) for s in plain],
            "cpu_s": [workload.cpu(s) for s in plain],
            "peak_rss_mb": [s.rss_mb for s in plain],
            "accuracy_digits": [accuracy_digits(s.max_error) for s in plain],
        }
        metrics = {k: {"value": statistics.median(v) if v else math.nan,
                       "unit": END_TO_END[k]} for k, v in series.items()}
        for k, v in series.items():
            lines.append(f"  {k:<18} {metrics[k]['value']:.6g} {END_TO_END[k]} "
                         f"(median; {_summary(v)})")
    else:
        traced = [s for s in samples if s.traced]
        per_sample = [layer_metrics(s.meta.get("spans", []), s.stderr) for s in traced]
        metrics = {k: {"value": statistics.median([m[k] for m in per_sample]),
                       "unit": PER_LAYER[k]} for k in per_sample[0]}
        for k in EXACT_COUNTS:
            if len({m[k] for m in per_sample}) != 1:
                problems.append(f"count {k} did not repeat: {[m[k] for m in per_sample]}")
        plain_walls = [workload.wall(s) for s in plain]
        overhead = statistics.median([workload.wall(s) for s in traced]) \
            - statistics.median(plain_walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for k, v in metrics.items():
            lines.append(f"  {k:<32} {v['value']:.6g} {v['unit']}")
        # the overhead is resolved only where it exceeds the untraced run-to-run spread
        q1, _, q3 = statistics.quantiles(plain_walls, n=4)
        if abs(overhead) <= q3 - q1:
            lines.append(f"  trace.overhead_s unresolved: |{overhead:.4g}| s is within "
                         f"the untraced wall_s quartile spread of {q3 - q1:.4g} s")
        for label, group in (("traced", traced), ("untraced", plain)):
            lines.append(f"  wall_s {label}: " + " ".join(
                f"{workload.wall(s):.4g}" for s in group))
    lines.append(f"  {'failed_frac':<18} {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    for p in problems:
        lines.append(f"  FAIL {p}")
    for k, m in metrics.items():
        if not math.isfinite(m["value"]):
            lines.append(f"  FAIL {k} was not measured")
            problems.append(k)
            m["value"] = 0.0
    lines.append("env " + json.dumps(environment(seed, samples)))
    print("\n".join(lines))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qduet" / "__init__.py").is_file():
        print(f"error: no qduet package under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM unwind through Runner.spawn, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()   # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
