#include "stream/drift.h"

#include "common/telemetry.h"

namespace faction {

bool DriftDetector::Observe(double value) {
  TelemetryCount("drift.observed");
  if (stats_.count() >= config_.min_history) {
    const double spread =
        stats_.stddev() > config_.min_std ? stats_.stddev() : config_.min_std;
    if (value < stats_.mean() - config_.threshold * spread) {
      TelemetryCount("drift.fired");
      // The triggering value is the first observation of the new regime:
      // restart the statistics from it so a sustained shift fires exactly
      // once.
      stats_ = RunningStat();
      stats_.Add(value);
      return true;
    }
  }
  stats_.Add(value);
  return false;
}

void DriftDetector::Reset() { stats_ = RunningStat(); }

}  // namespace faction
