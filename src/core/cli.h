#ifndef FACTION_CORE_CLI_H_
#define FACTION_CORE_CLI_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace faction {

/// The flags of examples/faction_cli: which stream, which method, and the
/// experiment knobs ExperimentDefaults exposes (core/presets.h).
struct CliOptions {
  std::string dataset = "nysf";
  /// When non-empty, a scenario DSL spec (data/scenario.h) that builds the
  /// stream instead of --dataset, with full provenance stamped into the
  /// trace's run_start record.
  std::string scenario;
  std::string method = "FACTION";
  std::size_t budget = 200;
  std::size_t acquisition = 50;
  std::size_t samples = 600;
  std::uint64_t seed = 42;
  double mu = 0.6;
  double lambda = 0.5;
  double alpha = 3.0;
  /// Density forgetting (DESIGN.md §15): sliding window over the GDA
  /// estimator (0 = off) and per-fold exponential decay (1 = off).
  std::size_t density_window = 0;
  double density_decay = 1.0;
  bool csv = false;
  bool help = false;
  /// When non-empty, write a JSONL event trace (stream/trace.h) here.
  /// Implies --telemetry so the counter-derived trace fields populate.
  std::string trace_path;
  /// Enable the process-wide metrics registry and print it after the run.
  bool telemetry = false;
};

/// Parses argv[1, argc) into *options. Numbers are strict: the whole
/// token must parse, integers take digits only (no sign), doubles must be
/// finite, and --density-decay must lie in (0, 1]. --help stops parsing.
/// An unknown flag, a missing value or a malformed one is an
/// InvalidArgument naming the flag and token; *options may then hold the
/// flags parsed before it.
Status ParseCliArgs(int argc, const char* const* argv, CliOptions* options);

}  // namespace faction

#endif  // FACTION_CORE_CLI_H_
