// Order statistics and rate interpolation shared by every workload of the
// repository benchmark.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentiles the benchmark may report as a tail, in tenths of a percent,
/// highest first.
inline constexpr int kTailLadderPermille[] = {999, 990, 950, 900, 750, 500};

/// Nearest-rank percentile: the sample at rank ceil(permille * n / 1000)
/// (1-based) of the sorted values. 0 for an empty input.
double Percentile(std::vector<double> values, int permille);

/// Middle value, or the mean of the two middle values. 0 when empty.
double Median(std::vector<double> values);

/// Smallest value; 0 when empty.
double Fastest(const std::vector<double>& values);

/// Samples strictly beyond the nearest-rank percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, int permille);

/// The highest ladder percentile that leaves at least `min_beyond` of `n`
/// samples beyond it; the median when none does.
int TailPermille(std::size_t n, std::size_t min_beyond = 10);

/// Tail latency measured at one fixed offered rate.
struct RatePoint {
  double rate = 0.0;
  double tail_ms = 0.0;
};

/// The offered rate at which the tail latency reaches `limit_ms`,
/// interpolated linearly between the two fixed rates that bracket the
/// crossing, so the result moves continuously with the measured tails.
/// `points` are sorted by rate. 0 when the lowest rate already misses the
/// limit; the highest rate when every rate meets it.
double SloRate(const std::vector<RatePoint>& points, double limit_ms);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
