// Declarations shared by the repository benchmark's workloads and main.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A workload's fixed parameters (perfbench/workloads.json) and the
/// per-run arguments. A workload with `samples_per_task` is a learner
/// workload; one without is a serving workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Existing directory for span files and checkpoint files.
  std::string scratch = ".";

  // Learner workloads.
  std::size_t samples_per_task = 0;

  // Serving workloads.
  std::size_t arrivals = 0;             ///< per session and pass
  std::size_t continue_arrivals = 0;    ///< per session after a warm start
  /// Fixed offered rates, arrivals/s, ascending. p50_ms is taken at the
  /// first.
  std::vector<double> rates;
  double limit_ms = 0.0;
  std::size_t checkpoint_interval = 0;  ///< steps; 0 leaves checkpoints off
  std::size_t density_window = 0;

  bool learner() const { return samples_per_task > 0; }
};

/// Metric values and output checks of one run.
struct Report {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts `n` checked operations of which `bad` failed; failures are
  /// logged to stderr.
  void Count(std::uint64_t n, std::uint64_t bad, const std::string& what);
  void Check(bool ok, const std::string& what) { Count(1, ok ? 0 : 1, what); }
};

/// Runs one workload and fills the report; nonzero when it could not run.
int RunLearnerWorkload(const Options& options, Report* report);
int RunServeWorkload(const Options& options, Report* report);

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
