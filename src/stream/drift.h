#ifndef FACTION_STREAM_DRIFT_H_
#define FACTION_STREAM_DRIFT_H_

#include <cstddef>

#include "common/stats.h"

namespace faction {

/// Environment-change detection built on the same signal FACTION's
/// selection exploits: when a new task comes from a shifted environment,
/// its samples' density under the current estimator collapses (high
/// epistemic uncertainty; Sec. IV-C "The Role of Epistemic Uncertainty").
///
/// The detector watches a scalar per-task statistic (such as the mean
/// feature-space log-density of the incoming task, or the negated query
/// rate over a window of arrivals) and raises a drift flag when the new
/// value falls more than `threshold` standard deviations below the running
/// mean of previously observed tasks. Detected drifts are natural hooks for
/// resetting incremental normalizers or temporarily raising the query rate
/// alpha.
struct DriftDetectorConfig {
  /// One-sided z-score threshold.
  double threshold = 3.0;
  /// Minimum observations before detection can fire.
  std::size_t min_history = 2;
  /// Standard-deviation floor, guarding against a near-constant history
  /// flagging every tiny wobble.
  double min_std = 1e-3;
};

/// Generic one-sided drop detector over a scalar stream.
class DriftDetector {
 public:
  explicit DriftDetector(const DriftDetectorConfig& config = {})
      : config_(config) {}

  /// Feeds the next per-task statistic. Returns true when the value is a
  /// drift (an abnormal drop). A firing re-arms the detector: the pre-drift
  /// history is dropped and the running statistics restart from the
  /// triggering value, the first observation of the new regime, so a
  /// sustained shift fires exactly once.
  bool Observe(double value);

  /// Number of values absorbed into the running statistics.
  std::size_t history() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }

  /// Forgets all history (e.g. after adapting to the new environment).
  void Reset();

 private:
  DriftDetectorConfig config_;
  RunningStat stats_;
};

}  // namespace faction

#endif  // FACTION_STREAM_DRIFT_H_
