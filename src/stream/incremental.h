#ifndef FACTION_STREAM_INCREMENTAL_H_
#define FACTION_STREAM_INCREMENTAL_H_

#include <cstddef>

namespace faction {

/// Incremental score normalizer for the single-sample arrival setting the
/// paper sketches in Sec. IV-D: "samples arriving individually, where the
/// normalization range can be updated incrementally with all gathered
/// scores." Tracks the running min/max of every score observed so far and
/// normalizes each new score against that range.
class IncrementalNormalizer {
 public:
  /// Records a score, expanding the running range.
  void Observe(double score);

  /// Normalizes a score against the running range: (x - min)/(max - min),
  /// clamped to [0, 1]. Before any observation (or with a degenerate
  /// range) every score maps to 0.5.
  double Normalize(double score) const;

  std::size_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Forgets the range (e.g. on an explicit environment-change signal).
  void Reset();

  /// Overwrites the running range wholesale — the checkpoint-restore path
  /// (serve/state_codec.h): a restored normalizer must resume from exactly
  /// the captured count/min/max so future Normalize calls are bitwise
  /// identical to the uninterrupted session's.
  void RestoreState(std::size_t count, double min, double max) {
    count_ = count;
    min_ = min;
    max_ = max;
  }

 private:
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace faction

#endif  // FACTION_STREAM_INCREMENTAL_H_
