#include "stream/trace.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/alloc_audit.h"
#include "tensor/simd.h"

namespace faction {

namespace {

std::string JsonBool(bool b) { return b ? "true" : "false"; }

/// ddp/eod/mi cell: the value when defined, null otherwise.
std::string MetricOrNull(double value, bool defined) {
  if (!defined) return "null";
  return JsonNumber(value);
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  // 17 significant digits round-trip any double; the shortest such decimal
  // keeps the trace diffable while staying exact.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TraceWriter::TraceWriter(std::ostream* os) : os_(os) {}

TraceWriter::TraceWriter(std::ofstream file)
    : file_(std::move(file)), os_(&file_) {}

Result<std::unique_ptr<TraceWriter>> TraceWriter::Create(
    const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) {
    return Status::NotFound("TraceWriter: cannot open " + path);
  }
  return std::make_unique<TraceWriter>(std::move(file));
}

Status TraceWriter::Flush() {
  os_->flush();
  if (!os_->good()) return Status::Internal("TraceWriter: write failed");
  return Status::Ok();
}

Status TraceWriter::WriteRunStart(const std::string& strategy_name,
                                  const DensityInfo& density,
                                  const ScenarioInfo& scenario,
                                  const CheckpointInfo& checkpoint) {
  // The dispatch tier is part of the run's provenance: results are bitwise
  // identical across tiers by contract, so a tier mismatch between two
  // traces that differ is immediately visible evidence of a parity bug.
  // The density, scenario, and checkpoint objects likewise: a window/decay,
  // spec/seed, or snapshot-cadence mismatch explains a divergence before
  // any numeric diffing.
  *os_ << "{\"type\":\"run_start\",\"schema_version\":" << kTraceSchemaVersion
       << ",\"strategy\":\"" << JsonEscape(strategy_name)
       << "\",\"simd_level\":\"" << ActiveSimd().name
       << "\",\"alloc_audit\":\"" << AllocAuditMode()
       << "\",\"density\":{\"window\":" << density.window
       << ",\"decay\":" << JsonNumber(density.decay)
       << "},\"scenario\":{\"spec\":\"" << JsonEscape(scenario.spec)
       << "\",\"world_seed\":" << scenario.world_seed
       << "},\"checkpoint\":{\"enabled\":"
       << (checkpoint.enabled ? "true" : "false")
       << ",\"interval_steps\":" << checkpoint.interval_steps << "}}\n";
  return Flush();
}

Status TraceWriter::WriteTask(const TaskTraceRecord& r) {
  *os_ << "{\"type\":\"task\""
       << ",\"task_index\":" << r.task_index
       << ",\"environment\":" << r.environment
       << ",\"queries\":" << r.queries_spent
       << ",\"acquisition_batches\":" << r.acquisition_batches
       << ",\"train_steps\":" << r.train_steps
       << ",\"density_refit_mode\":\"" << JsonEscape(r.density_refit_mode)
       << "\""
       << ",\"drift_fired\":" << r.drift_fired
       << ",\"metrics\":{"
       << "\"accuracy\":" << JsonNumber(r.accuracy)
       << ",\"nll\":" << JsonNumber(r.nll)
       << ",\"ddp\":" << MetricOrNull(r.ddp, r.ddp_defined)
       << ",\"eod\":" << MetricOrNull(r.eod, r.eod_defined)
       << ",\"mi\":" << MetricOrNull(r.mi, r.mi_defined) << "}"
       << ",\"metric_defined\":{"
       << "\"ddp\":" << JsonBool(r.ddp_defined)
       << ",\"eod\":" << JsonBool(r.eod_defined)
       << ",\"mi\":" << JsonBool(r.mi_defined) << "}"
       << ",\"wall\":{"
       << "\"evaluate_seconds\":" << JsonNumber(r.wall_evaluate_seconds)
       << ",\"acquire_seconds\":" << JsonNumber(r.wall_acquire_seconds)
       << ",\"train_seconds\":" << JsonNumber(r.wall_train_seconds)
       << ",\"task_seconds\":" << JsonNumber(r.wall_task_seconds) << "}}\n";
  return Flush();
}

Status TraceWriter::WriteRunEnd(std::size_t tasks, std::size_t total_queries,
                                std::size_t undefined_metric_tasks) {
  *os_ << "{\"type\":\"run_end\",\"tasks\":" << tasks
       << ",\"total_queries\":" << total_queries
       << ",\"undefined_metric_tasks\":" << undefined_metric_tasks << "}\n";
  return Flush();
}

}  // namespace faction
