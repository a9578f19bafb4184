#ifndef FACTION_STREAM_TRACE_H_
#define FACTION_STREAM_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "common/status.h"

namespace faction {

/// Schema version stamped into every run_start record. Bump when a field is
/// added, removed, or retyped; tools/validate_trace.py pins the layout.
/// v2: run_start gained "simd_level" (the resolved SIMD dispatch tier).
/// v3: run_start gained "alloc_audit" ("on"/"off" — whether the build
///     interposes the allocator; see common/alloc_audit.h).
/// v4: run_start gained the optional "serve" object ({"workers":N,
///     "sessions":N}) for multi-stream serving runs; absent for
///     single-stream runs. No writer stamps it any more, and validators
///     still accept it so older traces stay valid.
/// v5: run_start gained the always-present "density" object
///     ({"window":N,"decay":g}) — the run's density-forgetting
///     configuration (DESIGN.md §15). {"window":0,"decay":1} when the
///     estimator is grow-only.
/// v6: run_start gained the always-present "scenario" object
///     ({"spec":"...","world_seed":N}) — the canonical scenario DSL spec
///     the stream was generated from and the world seed every sub-seed
///     derives from (DESIGN.md §16). {"spec":"none","world_seed":0} for
///     streams built outside the scenario engine.
/// v7: run_start gained the always-present "checkpoint" object
///     ({"enabled":b,"interval_steps":N}) — whether background
///     checkpointing (DESIGN.md §17) was active for the run and its
///     snapshot cadence. {"enabled":false,"interval_steps":0} when off.
constexpr int kTraceSchemaVersion = 7;

/// One structured trace record per stream task (see DESIGN.md §11 for the
/// schema and determinism contract). Every field except the wall_* group is
/// deterministic: for a fixed stream, config, and seed it is bit-identical
/// across runs and worker-thread counts. The wall_* fields are wall-clock
/// stage timings and vary run to run.
struct TaskTraceRecord {
  int task_index = 0;
  int environment = 0;
  std::size_t queries_spent = 0;
  std::size_t acquisition_batches = 0;
  std::size_t train_steps = 0;
  /// How the strategy's density estimator was refreshed during this task:
  /// "batch", "incremental", "mixed", "none", or "unknown" (telemetry
  /// disabled, so counter deltas were unavailable).
  std::string density_refit_mode = "unknown";
  /// Drift-detector firings attributed to this task (counter delta; 0 when
  /// no detector runs or telemetry is disabled).
  std::uint64_t drift_fired = 0;
  double accuracy = 0.0;
  double nll = 0.0;
  /// Fairness metrics; emitted as JSON null when the matching *_defined
  /// flag is false (e.g. a single-group task).
  double ddp = 0.0;
  double eod = 0.0;
  double mi = 0.0;
  bool ddp_defined = true;
  bool eod_defined = true;
  bool mi_defined = true;
  /// Non-deterministic wall-clock stage timings, seconds.
  double wall_evaluate_seconds = 0.0;
  double wall_acquire_seconds = 0.0;
  double wall_train_seconds = 0.0;
  double wall_task_seconds = 0.0;
};

/// Density-forgetting configuration stamped into every run_start (schema
/// v5): the sliding-window length (0 = grow-only) and per-arrival decay
/// factor (1 = none). See FactionStrategyConfig/StreamingFactionConfig.
/// Namespace-scope (not nested in TraceWriter) so it can serve as a
/// defaulted `{}` argument — a nested aggregate's member initializers are
/// not parsed until the enclosing class is complete.
struct TraceDensityInfo {
  std::size_t window = 0;
  double decay = 1.0;
};

/// Scenario provenance stamped into every run_start (schema v6): the
/// canonical DSL spec (data/scenario.h CanonicalScenarioSpec) and the world
/// seed all per-layer sub-seeds derive from. "none"/0 identify a stream
/// built outside the scenario engine. Namespace-scope for the same reason
/// as TraceDensityInfo.
struct TraceScenarioInfo {
  std::string spec = "none";
  std::uint64_t world_seed = 0;
};

/// Checkpointing provenance stamped into every run_start (schema v7):
/// whether background state streaming (serve/checkpoint.h, DESIGN.md §17)
/// was active and the steps-between-snapshots cadence. false/0 for runs
/// without checkpointing. Namespace-scope for the same reason as
/// TraceDensityInfo.
struct TraceCheckpointInfo {
  bool enabled = false;
  std::size_t interval_steps = 0;
};

/// JSONL event trace for streaming runs: a run_start line, one task line
/// per stream task, and a run_end line. The writer is sequential and
/// non-owning of borrowed sinks; it never throws — I/O failures surface as
/// Status from the Write* calls.
class TraceWriter {
 public:
  /// Writes to a borrowed stream (kept alive by the caller); used by tests
  /// and in-memory consumers.
  explicit TraceWriter(std::ostream* os);

  /// Adopts an already-opened file sink. Prefer Create().
  explicit TraceWriter(std::ofstream file);

  /// Opens `path` for truncating write.
  static Result<std::unique_ptr<TraceWriter>> Create(const std::string& path);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// See TraceDensityInfo; aliased here so call sites read
  /// TraceWriter::DensityInfo.
  using DensityInfo = TraceDensityInfo;

  /// See TraceScenarioInfo; aliased like DensityInfo.
  using ScenarioInfo = TraceScenarioInfo;

  /// See TraceCheckpointInfo; aliased like DensityInfo.
  using CheckpointInfo = TraceCheckpointInfo;

  /// {"type":"run_start","schema_version":...,"strategy":...}
  Status WriteRunStart(const std::string& strategy_name,
                       const DensityInfo& density = {},
                       const ScenarioInfo& scenario = {},
                       const CheckpointInfo& checkpoint = {});

  /// {"type":"task",...}; see TaskTraceRecord.
  Status WriteTask(const TaskTraceRecord& record);

  /// {"type":"run_end","tasks":...,"total_queries":...,
  ///  "undefined_metric_tasks":...}
  Status WriteRunEnd(std::size_t tasks, std::size_t total_queries,
                     std::size_t undefined_metric_tasks);

 private:
  Status Flush();

  std::ofstream file_;    // owned sink (Create path)
  std::ostream* os_;      // active sink (points at file_ or the borrowed one)
};

/// Escapes a string for embedding in a JSON double-quoted literal.
std::string JsonEscape(const std::string& s);

/// Formats a double as a JSON number token; non-finite values (which JSON
/// cannot represent) render as null.
std::string JsonNumber(double value);

}  // namespace faction

#endif  // FACTION_STREAM_TRACE_H_
