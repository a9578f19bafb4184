#ifndef FACTION_COMMON_STATS_H_
#define FACTION_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace faction {

/// Streaming mean/variance accumulator (Welford). Used to aggregate repeated
/// experiment runs into the "mean ± std" numbers the paper reports.
class RunningStat {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }

  /// Population variance; 0 with fewer than two observations.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
  }

  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of a vector; 0 when empty.
double Mean(const std::vector<double>& xs);

/// Population standard deviation; 0 with fewer than two elements.
double StdDev(const std::vector<double>& xs);

/// Ordinary-least-squares slope of y against x. Returns 0 when fewer than
/// two points or when x is constant. Used by the theory bench to fit
/// log-log growth exponents for regret and fairness violation.
double OlsSlope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace faction

#endif  // FACTION_COMMON_STATS_H_
