#!/usr/bin/env bash
# One short run of a benchmark workload, checked against perfbench's
# independent reference (every output it writes, the --oracle route line
# included), which the tier-1 tests never run.
#
# Usage: bash ci/benchmark_check.sh WORKLOAD [TRACE]
#
# WORKLOAD is presets, long-horizon, phase-sweep or exceptional-point.
# The run must be correct with no failed operation.  With TRACE 1 the run
# is traced, and the mu_player, delta_mu, ltp_residual and noise_metric
# spans must each read more than 0: the tracer skips a function it cannot
# find without a word, so a renamed one would read 0 here.  The result
# line is kept in bench.out (traced.out with TRACE 1).
set -eo pipefail

workload=$1
trace=${2:-0}
out=bench.out
if [ "$trace" = 1 ]; then
  out=traced.out
fi

python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace "$trace" > "$out"
tail -n 1 "$out" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
ok = result["correct"] is True and result["failed"] == 0
summary = {key: result[key] for key in ("correct", "attempted", "failed")}
if sys.argv[1] == "1":
    spans = {key: result["metrics"][key]["value"]
             for key in ("dynamics.mu_player_s", "dynamics.delta_mu_s",
                         "oracle.ltp_residual_self_s", "analysis.noise_metric_s")}
    ok = ok and all(value > 0 for value in spans.values())
    print(summary, spans)
else:
    print(summary)
sys.exit(0 if ok else 1)' "$trace"
