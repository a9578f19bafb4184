#!/usr/bin/env python3
"""Serving gates on one perfbench run.

Reads the last stdout line of `perfbench/run.py` (one JSON object with the
keys correct, attempted, failed and metrics) from stdin and fails when the
run was incorrect, when any operation failed, or when a gate of its
workload misses its threshold:

  python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 5 \\
      --trace 1 | tail -n 1 | python3 tools/perf_gate.py serve-fleet 1

Exit status: 0 when every check passes, 1 otherwise, 2 on bad usage.
"""

import json
import sys

# (workload, trace) -> [(name, kind, threshold)]; kind is "min" or "max".
# "saturation_speedup" is ref_run_s / run_s: the fleet's saturation pass on
# 2 workers against its inline replay. Each comment names the gate of the
# retired bench.sh that the threshold replaces, at least as strict.
GATES = {
    ("serve-fleet", 1): [
        # achieved_fraction >= 0.95 and p99 <= 0.25 s at ~19k/s, 1 worker.
        ("serve.slo_rate", "min", 40000.0),
    ],
    ("serve-fleet", 0): [
        # multiplex_efficiency >= 0.25 on 1 worker; 0.25 x 2 workers here.
        ("saturation_speedup", "min", 0.50),
    ],
    ("serve-ckpt", 1): [
        # p99_snapshot_seconds <= 85.4 ms, snapshots every 256 steps.
        ("latency.tail_ms", "max", 5.0),
    ],
}


def metric(metrics, name):
    if name == "saturation_speedup":
        return metrics["ref_run_s"]["value"] / metrics["run_s"]["value"]
    return metrics[name]["value"]


def check(run, gates):
    """Returns the list of failure messages for one run."""
    failures = []
    if run.get("correct") is not True:
        failures.append("correct is not true")
    if run.get("failed", 1) > 0:
        failures.append("failed = %s" % run.get("failed"))
    metrics = run.get("metrics", {})
    for name, kind, threshold in gates:
        try:
            value = metric(metrics, name)
        except (KeyError, TypeError, ZeroDivisionError):
            failures.append("%s missing" % name)
            continue
        ok = value >= threshold if kind == "min" else value <= threshold
        word = ">=" if kind == "min" else "<="
        print("%s = %.4g, want %s %g: %s"
              % (name, value, word, threshold, "ok" if ok else "FAIL"))
        if not ok:
            failures.append("%s = %.4g misses %s %g"
                            % (name, value, word, threshold))
    return failures


def main(argv):
    if len(argv) != 3 or (argv[1], argv[2]) not in {
            (w, str(t)) for w, t in GATES}:
        print("usage: perf_gate.py WORKLOAD TRACE < last-line-of-run.py; "
              "gated: %s" % ", ".join("%s %d" % k for k in GATES),
              file=sys.stderr)
        return 2
    lines = sys.stdin.read().strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        print("perf_gate: no JSON result line on stdin (%s)" % e,
              file=sys.stderr)
        return 1
    failures = check(run, GATES[(argv[1], int(argv[2]))])
    for f in failures:
        print("perf_gate: %s %s: %s" % (argv[1], argv[2], f))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
