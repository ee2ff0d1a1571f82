"""One benchmark sample in a fresh interpreter.

    python child.py META import 0
    python child.py META cli TRACE ARGV...
    python child.py META sweep TRACE SCENARIOS.json OUT.npz

The script imports qduet first and records the monotonic time at which
the import returned (the end of set-up).  `cli` then runs the command
line front end with ARGV, as the `qduet` console script does.  `sweep`
runs the phase-sweep loop over the scenarios in SCENARIOS.json (which
also names the window passed to noise_metric) after one warm-up step and
saves every output to OUT.npz.  With TRACE=1 the public functions are
wrapped by the tracer and the spans go into META, a JSON file that also
receives the timestamps and the thread count.
"""

import sys
import time

import qduet  # noqa: F401  (set-up ends when this import returns)

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tracer():
    from tracer import Tracer  # the script's directory is on sys.path
    return Tracer().install()


def sweep(scenarios_path: str, out_path: str, trace: bool, meta: dict) -> int:
    import numpy as np
    from qduet import analysis, dynamics, model, oracle

    doc = json.loads(Path(scenarios_path).read_text())
    scenarios = [model.scenario_from_dict(d) for d in doc["scenarios"]]
    window = tuple(doc["noise_window"])

    def step(s):
        series = dynamics.decision_series(s)
        _, R = oracle.ltp_residual(s)
        return series, R, analysis.noise_metric(series, window)

    step(scenarios[0])
    tracer = _tracer() if trace else None
    cpu0, t0 = _cpu(), time.monotonic()
    results = [step(s) for s in scenarios]
    meta["loop_wall"] = time.monotonic() - t0
    meta["loop_cpu"] = _cpu() - cpu0
    if tracer is not None:
        meta["spans"] = tracer.spans
    np.savez(out_path,
             times=results[0][0].times,
             mu=np.stack([r[0].mu for r in results]),
             dmu=np.stack([r[0].dmu for r in results]),
             nB=np.stack([r[0].nB for r in results]),
             n=np.stack([r[0].n for r in results]),
             R=np.stack([r[1] for r in results]),
             noise=np.array([r[2] for r in results]))
    return 0


def main() -> int:
    meta_path, mode, trace, *rest = sys.argv[1:]
    meta = {"imported": IMPORTED}
    try:
        if mode == "cli":
            tracer = _tracer() if trace == "1" else None
            from qduet import cli
            try:
                status = cli.main(rest)
            finally:
                if tracer is not None:
                    meta["spans"] = tracer.spans
        elif mode == "sweep":
            status = sweep(rest[0], rest[1], trace == "1", meta)
        else:
            status = 0
    finally:
        meta["threads"] = _threads()
        Path(meta_path).write_text(json.dumps(meta))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
