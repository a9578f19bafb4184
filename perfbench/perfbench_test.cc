// Tests of the benchmark's own measurement rules: the tail-percentile
// sample rule, SLO-rate interpolation, and due-time latency accounting in
// the open-loop generator.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "bench_stats.h"
#include "open_loop.h"

namespace perfbench {
namespace {

TEST(TailRule, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(10u, SamplesBeyond(1000, 990));
  EXPECT_EQ(990, TailPermille(1000));
  // 999 samples leave only 9 beyond p99, so the tail falls back to p95.
  EXPECT_EQ(9u, SamplesBeyond(999, 990));
  EXPECT_EQ(950, TailPermille(999));
  EXPECT_EQ(999, TailPermille(10000));
  EXPECT_EQ(990, TailPermille(9600));
  EXPECT_EQ(900, TailPermille(128));
  EXPECT_EQ(500, TailPermille(5));
}

TEST(TailRule, NearestRankPercentileAndMedian) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(990.0, Percentile(values, 990));
  EXPECT_EQ(999.0, Percentile(values, 999));
  EXPECT_EQ(500.0, Percentile(values, 500));
  EXPECT_EQ(500.5, Median(values));
  EXPECT_EQ(0.0, Percentile({}, 990));
}

TEST(SloRate, InterpolatesBetweenTheBracketingRates) {
  const std::vector<RatePoint> points = {
      {4000, 1.0}, {8000, 2.0}, {12000, 6.0}, {16000, 20.0}};
  EXPECT_DOUBLE_EQ(10000.0, SloRate(points, 4.0));
  EXPECT_DOUBLE_EQ(8000.0, SloRate(points, 2.0));
  EXPECT_DOUBLE_EQ(16000.0, SloRate(points, 25.0));
  EXPECT_DOUBLE_EQ(0.0, SloRate(points, 0.5));
}

TEST(SloRate, MovesContinuouslyWithTheMeasuredTail) {
  std::vector<RatePoint> points = {{4000, 1.0}, {8000, 2.0}, {12000, 6.0}};
  const double before = SloRate(points, 4.0);
  points[2].tail_ms = 6.01;
  const double after = SloRate(points, 4.0);
  EXPECT_LT(after, before);
  EXPECT_NEAR(before, after, 10.0);
}

// Serves every arrival inline inside Offer, like a runtime without worker
// threads, and stalls once, on arrival `stall_at`.
class StallingTarget final : public ServeTarget {
 public:
  StallingTarget(std::size_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {}

  std::size_t sessions() const override { return 1; }
  bool Offer(std::size_t, std::size_t index) override {
    if (index == stall_at_) std::this_thread::sleep_for(stall_);
    ++completed_;
    return true;
  }
  std::size_t Completed(std::size_t) const override { return completed_; }

 private:
  std::size_t stall_at_;
  std::chrono::milliseconds stall_;
  std::size_t completed_ = 0;
};

TEST(OpenLoop, StallShowsAsLatencyOnTheArrivalsQueuedBehindIt) {
  // One arrival per millisecond; arrival 5 stalls the system for 20 ms.
  std::vector<Arrival> schedule(40);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].due_s = 1e-3 * static_cast<double>(i);
  }
  StallingTarget target(5, std::chrono::milliseconds(20));
  const OpenLoopResult result = RunOpenLoop(&target, schedule);
  ASSERT_EQ(0u, result.refused);
  EXPECT_GE(result.latency_ms[5], 20.0);
  // Arrivals 6..24 fell due during the stall. Each was served at once when
  // finally offered, yet timed from its due time it waited out the rest of
  // the stall: at least 25 - i ms.
  for (std::size_t i = 6; i < 25; ++i) {
    const double rest_of_stall_ms = 25.0 - static_cast<double>(i);
    EXPECT_GE(result.lag_ms[i], rest_of_stall_ms - 1e-6) << "arrival " << i;
    EXPECT_GE(result.latency_ms[i], rest_of_stall_ms - 1e-6)
        << "arrival " << i;
  }
}

// Refuses one arrival, as a full mailbox would.
class RefusingTarget final : public ServeTarget {
 public:
  std::size_t sessions() const override { return 1; }
  bool Offer(std::size_t, std::size_t index) override {
    if (index == 2) return false;
    ++completed_;
    return true;
  }
  std::size_t Completed(std::size_t) const override { return completed_; }

 private:
  std::size_t completed_ = 0;
};

TEST(OpenLoop, RefusedArrivalsAreCountedAndHaveNoLatency) {
  std::vector<Arrival> schedule(5);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].due_s = 1e-4 * static_cast<double>(i);
  }
  RefusingTarget target;
  const OpenLoopResult result = RunOpenLoop(&target, schedule);
  EXPECT_EQ(1u, result.refused);
  EXPECT_TRUE(std::isnan(result.latency_ms[2]));
  EXPECT_FALSE(std::isnan(result.latency_ms[3]));
  EXPECT_EQ(3u, result.index[3]);
}

TEST(OpenLoop, PoissonScheduleGivesEverySessionItsFixedCount) {
  const std::vector<Arrival> schedule = PoissonSchedule(4, 25, 1000.0, 7);
  ASSERT_EQ(100u, schedule.size());
  std::vector<int> per_session(4, 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    ++per_session[schedule[i].session];
    if (i > 0) {
      EXPECT_GT(schedule[i].due_s, schedule[i - 1].due_s);
    }
  }
  for (const int count : per_session) EXPECT_EQ(25, count);
  // 100 arrivals at 1000/s take about 0.1 s.
  EXPECT_NEAR(0.1, schedule.back().due_s, 0.05);
  const std::vector<Arrival> again = PoissonSchedule(4, 25, 1000.0, 7);
  EXPECT_EQ(schedule.back().due_s, again.back().due_s);
}

}  // namespace
}  // namespace perfbench
