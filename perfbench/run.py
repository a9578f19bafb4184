#!/usr/bin/env python3
"""Repository benchmark.

Builds the library and the benchmark program from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints its metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload nysf-2k --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test   # the benchmark's own tests

Workload parameters (fixed offered rates, arrivals per session, the latency
limit) are constants in perfbench/workloads.json; nothing is calibrated per
run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir, target):
    """Configures once, then builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", target,
                  "--parallel", jobs])
    sys.stdout.flush()
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def workload_flags(name):
    """Program flags from the workload's fixed parameters; None if unknown."""
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    workload = workloads.get(name)
    if workload is None:
        return None
    flags = []
    for key, value in workload["params"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    if args.self_test:
        if not build(bdir, "perfbench_test"):
            return 1
        test = os.path.join(bdir, "perfbench_test")
        return subprocess.run([test]).returncode

    flags = workload_flags(args.workload) if args.workload else None
    if flags is None:
        parser.error("--workload must name a workload of "
                     "perfbench/workloads.json")
    if not build(bdir, "faction_perfbench"):
        return 1
    scratch = os.path.join(bdir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [os.path.join(bdir, "faction_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch] + flags
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark program exited with code %d"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark program metrics do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print("provenance: sha %s, nproc %d" % (git_sha(), os.cpu_count() or 0))
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
