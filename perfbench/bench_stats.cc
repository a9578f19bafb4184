#include "bench_stats.h"

#include <algorithm>

namespace perfbench {

namespace {

// 1-based nearest rank, computed in integers so that p99 of 1000 samples
// is exactly rank 990.
std::size_t Rank(std::size_t n, int permille) {
  const std::size_t p = static_cast<std::size_t>(permille);
  return std::clamp<std::size_t>((p * n + 999) / 1000, 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, int permille) {
  if (values.empty()) return 0.0;
  const std::size_t k = Rank(values.size(), permille) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

std::size_t SamplesBeyond(std::size_t n, int permille) {
  return n == 0 ? 0 : n - Rank(n, permille);
}

int TailPermille(std::size_t n, std::size_t min_beyond) {
  for (const int permille : kTailLadderPermille) {
    if (SamplesBeyond(n, permille) >= min_beyond) return permille;
  }
  return 500;
}

double SloRate(const std::vector<RatePoint>& points, double limit_ms) {
  if (points.empty() || points.front().tail_ms > limit_ms) return 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const RatePoint& lo = points[i - 1];
    const RatePoint& hi = points[i];
    if (hi.tail_ms > limit_ms) {
      // lo meets the limit and hi misses it, so the fraction is in [0, 1).
      const double frac = (limit_ms - lo.tail_ms) / (hi.tail_ms - lo.tail_ms);
      return lo.rate + frac * (hi.rate - lo.rate);
    }
  }
  return points.back().rate;
}

}  // namespace perfbench
