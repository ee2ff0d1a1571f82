"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0] [--out summary.json]

Every workload of BENCHMARK.json runs once per seed, for its run_seconds.
For every workload and metric this prints the median over the seeds,
the quartiles from statistics.quantiles(n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  The
summary JSON (with the environment of the first run) is the form in
which baselines are kept under perfbench/baselines/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
            summary.setdefault("env", env)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(metric), "values": values}
            print(f"  {metric:<32} median {median:<12.6g} spread {spread:.4f} "
                  f"bound {bounds.get(metric)}")
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "metrics": table}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
