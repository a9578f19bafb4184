#ifndef FACTION_STREAM_DRIFT_H_
#define FACTION_STREAM_DRIFT_H_

#include <cstddef>

#include "common/stats.h"
#include "density/fair_density.h"
#include "tensor/matrix.h"

namespace faction {

/// Environment-change detection built on the same signal FACTION's
/// selection exploits: when a new task comes from a shifted environment,
/// its samples' density under the current estimator collapses (high
/// epistemic uncertainty; Sec. IV-C "The Role of Epistemic Uncertainty").
///
/// The detector watches a scalar per-task statistic (the mean feature-space
/// log-density of the incoming task) and raises a drift flag when the new
/// value falls more than `threshold` standard deviations below the running
/// mean of previously observed tasks. Detected drifts are natural hooks for
/// resetting incremental normalizers or temporarily raising the query rate
/// alpha.
/// What the detector does with its pre-drift statistics after it fires —
/// the re-arm semantics. Without re-arming (kManual), the pre-shift
/// history stays intact and the triggering value is never folded, so a
/// sustained distribution shift makes the detector fire on every
/// subsequent arrival instead of adapting to the new regime.
enum class DriftReArm {
  /// Fire-and-adapt (default): on fire, drop the pre-drift history and
  /// seed the running statistics with the triggering value — the first
  /// observation of the new regime. A sustained shift fires exactly once.
  kResetOnFire,
  /// On fire, keep the history but fold the triggering value and every
  /// value of the next `cooldown` observations while suppressing further
  /// firings; the shifted regime is absorbed gradually.
  kCooldown,
  /// Pre-fix semantics: keep pre-drift statistics intact and never fold
  /// the triggering value. The caller owns re-arming via Reset() — and a
  /// caller that forgets gets a fire on every post-shift arrival.
  kManual,
};

struct DriftDetectorConfig {
  /// One-sided z-score threshold.
  double threshold = 3.0;
  /// Minimum observations before detection can fire.
  std::size_t min_history = 2;
  /// Standard-deviation floor, guarding against a near-constant history
  /// flagging every tiny wobble.
  double min_std = 1e-3;
  /// Re-arm semantics after a firing.
  DriftReArm rearm = DriftReArm::kResetOnFire;
  /// Observations with detection suppressed after a firing (kCooldown).
  std::size_t cooldown = 3;
};

/// Generic one-sided drop detector over a scalar stream.
class DriftDetector {
 public:
  explicit DriftDetector(const DriftDetectorConfig& config = {})
      : config_(config) {}

  /// Feeds the next per-task statistic. Returns true when the value is a
  /// drift (an abnormal drop). What happens to the running statistics on a
  /// firing is governed by DriftDetectorConfig::rearm; see DriftReArm.
  bool Observe(double value);

  /// Number of values absorbed into the running statistics.
  std::size_t history() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }

  /// Observations left in the post-fire suppression window (kCooldown).
  std::size_t cooldown_remaining() const { return cooldown_remaining_; }

  /// Forgets all history (e.g. after adapting to the new environment).
  void Reset();

 private:
  DriftDetectorConfig config_;
  RunningStat stats_;
  std::size_t cooldown_remaining_ = 0;
};

/// Mean log marginal density of a batch of feature vectors under the
/// estimator — the per-task statistic the detector consumes. -infinity
/// rows (no fitted components) are skipped; returns the mean over the
/// rest, or a very negative constant when every row is -infinity.
double MeanLogDensity(const FairDensityEstimator& estimator,
                      const Matrix& features);

}  // namespace faction

#endif  // FACTION_STREAM_DRIFT_H_
