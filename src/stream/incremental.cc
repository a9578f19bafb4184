#include "stream/incremental.h"

#include <algorithm>

namespace faction {

void IncrementalNormalizer::Observe(double score) {
  if (count_ == 0) {
    min_ = score;
    max_ = score;
  } else {
    min_ = std::min(min_, score);
    max_ = std::max(max_, score);
  }
  ++count_;
}

double IncrementalNormalizer::Normalize(double score) const {
  if (count_ == 0 || max_ - min_ < 1e-300) return 0.5;
  const double norm = (score - min_) / (max_ - min_);
  return std::clamp(norm, 0.0, 1.0);
}

void IncrementalNormalizer::Reset() {
  count_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace faction
