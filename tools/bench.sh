#!/usr/bin/env bash
# bench.sh — benchmark driver (PR 3; SIMD tiers PR 5; serve loadgen PR 7;
# density forgetting PR 8; checkpoint/warm-start PR 10).
#
# Builds bench/micro_components in a dedicated native-tuned Release tree
# (build-bench), runs the tracked benchmarks at FACTION_NUM_THREADS=1 and at
# the default thread count, runs bench/serve_loadgen against the serve
# runtime, and merges everything plus the derived speedups into
# BENCH_PR8.json at the repo root, stamped with the current git SHA and a
# report schema version (meta.bench_schema).
#
# Reported pair speedups (baseline at 1 thread vs new path at default
# threads — the ratios the acceptance floors are defined on):
#   * conv_gemm_vs_naive              — BM_Conv2dNaive / BM_Conv2dIm2col
#   * density_refit_incremental_vs_batch
#                                     — BM_DensityRefitBatch/2400 /
#                                       BM_DensityRefitIncremental/2400
#   * density_windowed_slide_vs_batch — BM_WindowedTrainStepBatch/2400 /
#                                       BM_WindowedTrainStepIncremental/2400
#                                       (PR 8: sliding a W=2048 window by
#                                       A=25 via rank-1 downdates vs
#                                       refitting the window from scratch)
#
# The PR 5 section adds per-dispatch-tier results (BM_GemmMicroKernel /
# BM_TrainStepSimd / BM_PoolScoringSimd at generic/avx2/avx512) and
# single-thread ratios of this run against the committed BENCH_PR3.json /
# BENCH_PR2.json medians ("vs_committed"). Those ratios compare different
# machines only when the committed file came from another host; on the same
# host they are the SIMD speedup.
#
# The PR 7 "serve" section records the loadgen run (open-loop Poisson +
# burst arrivals over multiplexed sessions): calibrated single-stream
# rate, p50/p95/p99 step latency under load, saturation throughput,
# multiplex efficiency, and sessions/core. Three SLO floors gate the run
# (within-run ratios plus one generous absolute, so the gate is portable
# across hosts): achieved_fraction >= 0.95, multiplex_efficiency >= 0.25,
# p99 <= 0.25 s.
#
# The PR 10 "checkpoint" section records bench/checkpoint_bench: hot-path
# capture latency, background-encode cost, p99 step latency with
# checkpointing off vs on at a paced fraction of calibrated capacity, and
# warm-start vs replay recovery at 64 sessions. Two gates: the restored
# fleet must come up >= 10x faster than replaying the arrival log
# (warmstart_speedup >= 10), and the under-snapshotting tail must hold
# the serving SLO inherited from the BENCH_PR7 baseline
# (p99_snapshot_seconds <= 1.10 x the committed serve load p99, falling
# back to the 0.25 s absolute ceiling when no baseline file exists). The
# within-run plain-vs-snapshotting tail ratio is reported for eyeballing
# but not gated: the plain phase's single-digit-ms p99 is scheduler noise
# on an oversubscribed host and swings far more run to run than any bound
# tight enough to catch a real serialize-herd stall would tolerate.
#
# If the output file already exists, its medians are compared against the
# fresh run and regressions above 25% are reported.
#
# The BENCH_PR5 "known_regressions" entries are closed as of PR 7 and no
# longer emitted: the generic train-step tier measures faster than the
# retired pre-SIMD scalar step (0.865x, parity reached — the 4-row GEMM
# tile was re-measured against a 2-row tile and a 16-row cache block and
# kept as the optimum), and the avx512 pool-scoring deficit is gone now
# that tier loads no longer go through memcpy (DESIGN.md §12). The avx2
# tier TU is also pinned -mno-avx256-split-unaligned-{load,store}:
# without it GCC's generic tuning splits every unaligned 256-bit access
# and the avx2 kernels ran ~5x slower in non-native-arch builds.
#
# Usage: tools/bench.sh [--min-time SECONDS] [--binary PATH]
#                       [--loadgen-binary PATH] [--skip-serve]
#                       [--checkpoint-binary PATH] [--skip-checkpoint]
#                       [--check-against JSON] [--out FILE]
#   --binary PATH         use an existing micro_components binary instead
#                         of configuring/building build-bench (CI smoke).
#   --loadgen-binary PATH use an existing serve_loadgen binary.
#   --skip-serve          skip the loadgen run and its SLO gate.
#   --checkpoint-binary PATH
#                         use an existing checkpoint_bench binary.
#   --skip-checkpoint     skip the checkpoint run and its gates.
#   --check-against JSON  compare the fresh pair speedups against the
#                         "speedups" section of a committed BENCH_*.json;
#                         exit 1 if any fresh speedup falls below
#                         committed/1.25. Ratio-vs-ratio comparison, so it
#                         is portable across machines of different speeds.
#                         The committed report's meta.bench_schema must
#                         match this script's (reports predating the stamp
#                         count as version 1): a mismatched baseline fails
#                         loudly instead of silently skipping whatever
#                         speedup keys the old layout happens to lack.
#   --out FILE            output path (default BENCH_PR10.json).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

MIN_TIME="0.2"
BINARY=""
LOADGEN_BINARY=""
SKIP_SERVE=""
CHECKPOINT_BINARY=""
SKIP_CHECKPOINT=""
CHECK_AGAINST=""
OUT="BENCH_PR10.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --min-time) MIN_TIME="$2"; shift 2 ;;
    --binary) BINARY="$2"; shift 2 ;;
    --loadgen-binary) LOADGEN_BINARY="$2"; shift 2 ;;
    --skip-serve) SKIP_SERVE=1; shift ;;
    --checkpoint-binary) CHECKPOINT_BINARY="$2"; shift 2 ;;
    --skip-checkpoint) SKIP_CHECKPOINT=1; shift ;;
    --check-against) CHECK_AGAINST="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
# Self-contained tree outside build/: nesting it at build/bench would
# clobber the main tree's bench/ binary dir and leak the nested tree's
# ctest entries (31 phantom "Not Run" tests) into `ctest --test-dir build`.
BUILD_DIR="build-bench"
FILTER='BM_Conv2dNaive|BM_Conv2dIm2col|BM_TrainStep|BM_DensityRefit|BM_PoolScoring$|BM_GemmMicroKernel|BM_TrainStepSimd|BM_PoolScoringSimd|BM_DensityDowndate|BM_WindowedTrainStep'
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ -z "$BINARY" || ( -z "$SKIP_SERVE" && -z "$LOADGEN_BINARY" ) ||
      ( -z "$SKIP_CHECKPOINT" && -z "$CHECKPOINT_BINARY" ) ]]; then
  printf '\n\033[1m== configure+build [bench: Release, native arch] ==\033[0m\n'
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DFACTION_NATIVE_ARCH=ON \
    >/dev/null
  TARGETS=()
  if [[ -z "$BINARY" ]]; then TARGETS+=(micro_components); fi
  if [[ -z "$SKIP_SERVE" && -z "$LOADGEN_BINARY" ]]; then
    TARGETS+=(serve_loadgen)
  fi
  if [[ -z "$SKIP_CHECKPOINT" && -z "$CHECKPOINT_BINARY" ]]; then
    TARGETS+=(checkpoint_bench)
  fi
  cmake --build "$BUILD_DIR" --target "${TARGETS[@]}" -j "$JOBS" >/dev/null
  if [[ -z "$BINARY" ]]; then BINARY="$BUILD_DIR/bench/micro_components"; fi
  if [[ -z "$LOADGEN_BINARY" ]]; then
    LOADGEN_BINARY="$BUILD_DIR/bench/serve_loadgen"
  fi
  if [[ -z "$CHECKPOINT_BINARY" ]]; then
    CHECKPOINT_BINARY="$BUILD_DIR/bench/checkpoint_bench"
  fi
fi
mkdir -p "$BUILD_DIR"

run_bench() {
  local threads="$1" out="$2"
  printf '\033[1m== run [FACTION_NUM_THREADS=%s] ==\033[0m\n' "$threads"
  local env_prefix=()
  if [[ "$threads" != "default" ]]; then
    env_prefix=(env "FACTION_NUM_THREADS=$threads")
  fi
  "${env_prefix[@]}" "$BINARY" \
    --benchmark_filter="$FILTER" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$out" --benchmark_out_format=json \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
}

run_bench 1 "$BUILD_DIR/bench_t1.json"
run_bench default "$BUILD_DIR/bench_tdefault.json"

# Serve loadgen: single worker on the 1-CPU CI host (the loadgen thread
# shares the core, so utilization stays moderate; the within-run SLO
# ratios are what the gate enforces). Utilization is set below the
# measured multiplex efficiency (~0.30-0.36 of single-stream): the
# target rate scales with the calibration, so a fast calibration run at
# a utilization above sustainable capacity would shed its way under the
# achieved_fraction floor on noise alone. The run also emits a
# schema-v4 trace, validated in place.
LOADGEN_JSON="$BUILD_DIR/loadgen.json"
if [[ -z "$SKIP_SERVE" ]]; then
  printf '\n\033[1m== run [serve_loadgen] ==\033[0m\n'
  "$LOADGEN_BINARY" \
    --workers 1 --sessions 64 --utilization 0.28 \
    --duration-seconds 3 --saturation-seconds 1 --seed 7 \
    --out "$LOADGEN_JSON" --trace "$BUILD_DIR/loadgen_trace.jsonl"
  python3 tools/validate_trace.py "$BUILD_DIR/loadgen_trace.jsonl"
else
  LOADGEN_JSON=""
fi

# Checkpoint/warm-start bench: replay calibration, paced SLO phases with
# snapshotting off/on, and the recovery comparison. Scratch dir inside the
# bench tree so reruns and CI leave /tmp alone; the run also emits a
# schema-v7 trace (checkpoint object), validated in place.
CHECKPOINT_JSON="$BUILD_DIR/checkpoint.json"
if [[ -z "$SKIP_CHECKPOINT" ]]; then
  printf '\n\033[1m== run [checkpoint_bench] ==\033[0m\n'
  rm -rf "$BUILD_DIR/checkpoint-scratch"
  mkdir -p "$BUILD_DIR/checkpoint-scratch"
  "$CHECKPOINT_BINARY" \
    --workers 2 --sessions 64 --steps 2000 --seed 7 \
    --dir "$BUILD_DIR/checkpoint-scratch" \
    --out "$CHECKPOINT_JSON" --trace "$BUILD_DIR/checkpoint_trace.jsonl"
  python3 tools/validate_trace.py "$BUILD_DIR/checkpoint_trace.jsonl"
else
  CHECKPOINT_JSON=""
fi

GIT_SHA="$GIT_SHA" CHECK_AGAINST="$CHECK_AGAINST" LOADGEN_JSON="$LOADGEN_JSON" \
  CHECKPOINT_JSON="$CHECKPOINT_JSON" \
  python3 - \
  "$BUILD_DIR/bench_t1.json" "$BUILD_DIR/bench_tdefault.json" "$OUT" <<'EOF'
import json
import os
import sys

t1_path, tdef_path, out_path = sys.argv[1:4]

# Report layout version stamped into meta.bench_schema. Bump when the
# tracked benchmark set or the speedup keys change shape; --check-against
# refuses a baseline stamped with a different version (absent == 1, the
# pre-stamp layout) instead of silently comparing whatever keys overlap.
# v2: PR 8 — density forgetting pair (density_windowed_slide_vs_batch,
#     BM_DensityDowndate / BM_WindowedTrainStep*).
# v3: PR 10 — "checkpoint" section (bench/checkpoint_bench: capture/encode
#     latency, paced p99 with snapshotting off/on, warm-start vs replay)
#     and its gates.
BENCH_SCHEMA = 3

SIMD_LEVELS = {"0": "generic", "1": "avx2", "2": "avx512"}
SIMD_BENCHES = ("BM_GemmMicroKernel", "BM_TrainStepSimd",
                "BM_PoolScoringSimd")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc["benchmarks"]:
        if b.get("aggregate_name") == "median":
            times[b["run_name"]] = b["real_time"]
    return doc["context"], times


ctx1, t1 = load(t1_path)
ctxd, tdef = load(tdef_path)


def speedup(base, new):
    return round(base / new, 3) if new else None


pair_speedups = {
    "conv_gemm_vs_naive": speedup(t1["BM_Conv2dNaive"],
                                  tdef["BM_Conv2dIm2col"]),
    "density_refit_incremental_vs_batch": speedup(
        t1["BM_DensityRefitBatch/2400"],
        tdef["BM_DensityRefitIncremental/2400"],
    ),
    "density_windowed_slide_vs_batch": speedup(
        t1["BM_WindowedTrainStepBatch/2400"],
        tdef["BM_WindowedTrainStepIncremental/2400"],
    ),
}

# Per-dispatch-tier medians (1 thread): {bench: {generic: ns, avx2: ns, ...}}.
# Skipped tiers (unsupported host) simply do not appear in the run output.
# The level is the first argument; any further ones (BM_TrainStepSimd's
# input_dim) stay in the key, e.g. "BM_TrainStepSimd/12".
per_level = {}
for name, ns in sorted(t1.items()):
    base, _, arg = name.partition("/")
    level, _, rest = arg.partition("/")
    if base in SIMD_BENCHES and level in SIMD_LEVELS:
        key = f"{base}/{rest}" if rest else base
        per_level.setdefault(key, {})[SIMD_LEVELS[level]] = round(ns, 1)

# The BENCH_PR5 known_regressions entries are closed (see the header
# comment): per_level still carries every tier's raw medians, so a future
# regression on either path shows up there and in the >25% comparison
# against the previous report.

# Serve loadgen report, produced by the run above. The SLO gate enforces
# the three floors on it after the merged report is written.
serve = None
loadgen_path = os.environ.get("LOADGEN_JSON", "")
if loadgen_path:
    with open(loadgen_path) as f:
        serve = json.load(f)

# Checkpoint bench report; its gates run after the merged report is
# written.
checkpoint = None
checkpoint_path = os.environ.get("CHECKPOINT_JSON", "")
if checkpoint_path:
    with open(checkpoint_path) as f:
        checkpoint = json.load(f)

# Single-thread ratios against the committed pre-SIMD baselines. Same-host
# runs read as the SIMD speedup on each tracked hot path.
# BM_TrainStep ran only at input_dim 16 before it took the dim argument.
vs_committed = {}
for committed_path, pairs in (
    ("BENCH_PR3.json",
     (("BM_TrainStep", "BM_TrainStep/16", "simd_train_step_vs_pr3"),
      ("BM_Conv2dIm2col", "BM_Conv2dIm2col", "simd_conv_im2col_vs_pr3"))),
    ("BENCH_PR2.json",
     (("BM_PoolScoring", "BM_PoolScoring", "simd_pool_scoring_vs_pr2"),)),
):
    if not os.path.exists(committed_path):
        continue
    with open(committed_path) as f:
        committed_t1 = json.load(f).get("threads_1", {})
    for old_name, bench, key in pairs:
        if old_name in committed_t1 and bench in t1:
            vs_committed[key] = speedup(committed_t1[old_name], t1[bench])

report = {
    "meta": {
        "bench_schema": BENCH_SCHEMA,
        "git_sha": os.environ.get("GIT_SHA", "unknown"),
        "date": ctxd.get("date"),
        "host_cpus": ctxd.get("num_cpus"),
        "mhz_per_cpu": ctxd.get("mhz_per_cpu"),
        "build": "Release + FACTION_NATIVE_ARCH",
        "time_unit": "ns (median of 3 repetitions, real time)",
        "note": (
            "Pair speedups compare the retained baseline implementation "
            "at 1 thread against the new path at default threads: the "
            "naive conv loops vs the im2col/GEMM lowering, and a full "
            "batch GDA refit of a 2400-row pool vs incrementally folding "
            "one 25-row acquisition round into the sufficient statistics. "
            "per_level holds single-thread medians per SIMD dispatch tier "
            "(FACTION_SIMD_LEVEL); vs_committed holds single-thread "
            "ratios of committed pre-SIMD medians (BENCH_PR3/BENCH_PR2) "
            "over this run — the SIMD speedup when produced on the same "
            "host. serve holds the loadgen run over the PR 7 serve "
            "runtime (open-loop Poisson+burst arrivals, then a "
            "saturation sweep); its SLO floors are achieved_fraction >= "
            "0.95, multiplex_efficiency >= 0.25, p99 <= 0.25 s. "
            "checkpoint holds the PR 10 background-snapshot run "
            "(bench/checkpoint_bench); its gates are warmstart_speedup >= "
            "10, p99_snapshot_seconds <= 1.10 x the committed BENCH_PR7 "
            "serve load p99 (absolute 0.25 s ceiling when no baseline "
            "exists); the within-run p99_ratio is reported, not gated."
        ),
    },
    "threads_1": {k: round(v, 1) for k, v in sorted(t1.items())},
    "threads_default": {k: round(v, 1) for k, v in sorted(tdef.items())},
    "per_level": per_level,
    "speedups": {**pair_speedups, **vs_committed},
}
if serve is not None:
    report["serve"] = serve
if checkpoint is not None:
    report["checkpoint"] = checkpoint

# Compare against the previous report at the same path, if any: flag any
# benchmark whose median regressed by more than 25%.
if os.path.exists(out_path):
    with open(out_path) as f:
        previous = json.load(f)
    print(f"comparison vs previous {out_path} "
          f"(sha {previous.get('meta', {}).get('git_sha', '?')[:12]}):")
    for section in ("threads_1", "threads_default"):
        old = previous.get(section, {})
        for name, fresh_ns in sorted(report[section].items()):
            if name not in old or not old[name]:
                continue
            ratio = fresh_ns / old[name]
            flag = "  REGRESSION >25%" if ratio > 1.25 else ""
            print(f"  {section:16s} {name:40s} "
                  f"{old[name]:>12.1f} -> {fresh_ns:>12.1f} ns "
                  f"({ratio:5.2f}x){flag}")

with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(json.dumps(report["speedups"], indent=2))

# Serve SLO gate. Two within-run ratios (portable across hosts of any
# speed) plus one generous absolute latency ceiling:
#   achieved_fraction    — the open-loop phase kept up with its offered
#                          rate; below 0.95 the runtime shed or lagged.
#   multiplex_efficiency — saturation throughput over the calibrated
#                          single-stream rate; 64 interleaved sessions on
#                          one worker must retain >= 25% of a dedicated
#                          stream's rate (scheduling + cold-cache tax).
#   p99_seconds          — tail step latency under the offered load.
if serve is not None:
    slo = (
        ("load.achieved_fraction",
         serve["load"]["achieved_fraction"], 0.95, "min"),
        ("saturation.multiplex_efficiency",
         serve["saturation"]["multiplex_efficiency"], 0.25, "min"),
        ("load.p99_seconds", serve["load"]["p99_seconds"], 0.25, "max"),
    )
    slo_failures = []
    for key, value, bound, kind in slo:
        ok = value >= bound if kind == "min" else value <= bound
        word = ">=" if kind == "min" else "<="
        print(f"serve SLO {key}: {value:.4g} {word} {bound:g} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            slo_failures.append(key)
    if slo_failures:
        print(f"serve SLO gate failed: {', '.join(slo_failures)}")
        sys.exit(1)

# Checkpoint gates (PR 10). The p99 ceiling is inherited from the
# committed BENCH_PR7 serve baseline when available — the target's literal
# criterion: snapshotting must hold the serving SLO the runtime already
# demonstrated. The within-run plain-vs-snapshot ratio is reported but
# NOT gated: its denominator (the plain phase's p99, single-digit ms) is
# dominated by scheduler noise on an oversubscribed host and swings 2-40x
# run to run, so any bound tight enough to catch a real serialize-herd
# stall (10x+ before the per-session phase staggering landed) also flakes
# on clean runs. The absolute ceiling against the committed baseline is
# the binding criterion; the ratio stays in the JSON for eyeballing.
if checkpoint is not None:
    p99_ceiling = 0.25 * 1.10
    baseline_note = "absolute fallback"
    if os.path.exists("BENCH_PR7.json"):
        with open("BENCH_PR7.json") as f:
            pr7 = json.load(f)
        baseline_p99 = pr7.get("serve", {}).get("load", {}).get(
            "p99_seconds")
        if isinstance(baseline_p99, (int, float)) and baseline_p99 > 0:
            p99_ceiling = 1.10 * baseline_p99
            baseline_note = f"1.10 x BENCH_PR7 load p99 {baseline_p99:.4g}"
    gates = (
        ("warmstart_speedup",
         checkpoint["warmstart_speedup"], 10.0, "min", "floor 10x"),
        ("p99_snapshot_seconds",
         checkpoint["p99_snapshot_seconds"], p99_ceiling, "max",
         baseline_note),
    )
    print(f"checkpoint p99_ratio (reported, not gated): "
          f"{checkpoint['p99_ratio']:.4g}")
    ckpt_failures = []
    for key, value, bound, kind, note in gates:
        ok = value >= bound if kind == "min" else value <= bound
        word = ">=" if kind == "min" else "<="
        print(f"checkpoint gate {key}: {value:.4g} {word} {bound:.4g} "
              f"({note}) {'ok' if ok else 'FAIL'}")
        if not ok:
            ckpt_failures.append(key)
    if ckpt_failures:
        print(f"checkpoint gate failed: {', '.join(ckpt_failures)}")
        sys.exit(1)

# --check-against: fail when a fresh pair speedup drops below the
# committed one by more than 25%. Speedups are within-machine ratios, so
# this check is meaningful on any host. The baseline must carry the same
# bench_schema as this script: an old layout would silently lack the newer
# speedup keys and the gate would pass while checking nothing, so a
# mismatch is an explicit failure telling the operator to regenerate.
check_path = os.environ.get("CHECK_AGAINST", "")
if check_path:
    with open(check_path) as f:
        committed_report = json.load(f)
    committed_schema = committed_report.get("meta", {}).get(
        "bench_schema", 1)
    if committed_schema != BENCH_SCHEMA:
        print(f"check-against schema mismatch: {check_path} has "
              f"bench_schema {committed_schema}, this script writes "
              f"{BENCH_SCHEMA}; the regression comparison would silently "
              f"skip the speedup keys the old layout lacks. Regenerate "
              f"the baseline with tools/bench.sh --out {check_path}.")
        sys.exit(1)
    committed = committed_report.get("speedups", {})
    failures = []
    for key, fresh in pair_speedups.items():
        want = committed.get(key)
        if not isinstance(want, (int, float)) or fresh is None:
            continue
        floor = want / 1.25
        status = "ok" if fresh >= floor else "FAIL"
        print(f"check {key}: fresh {fresh:.2f}x vs committed {want:.2f}x "
              f"(floor {floor:.2f}x) {status}")
        if fresh < floor:
            failures.append(key)
    if failures:
        print(f"benchmark regression gate failed: {', '.join(failures)}")
        sys.exit(1)
EOF
