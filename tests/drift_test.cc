#include <cstdint>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "stream/drift.h"
#include "stream/online_learner.h"
#include "core/presets.h"

namespace faction {
namespace {

// ---------------------------------------------------------- DriftDetector

TEST(DriftDetectorTest, NoFlagOnStableSignal) {
  DriftDetector detector;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(detector.Observe(rng.Gaussian(-10.0, 0.5)));
  }
  EXPECT_EQ(detector.history(), 50u);
}

TEST(DriftDetectorTest, FlagsAbruptDrop) {
  DriftDetector detector;
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_FALSE(detector.Observe(rng.Gaussian(-10.0, 0.5)));
  }
  EXPECT_TRUE(detector.Observe(-40.0));
  // Re-arm on fire: the pre-drift history is dropped and the statistics
  // restart from the triggering value.
  EXPECT_EQ(detector.history(), 1u);
  EXPECT_DOUBLE_EQ(detector.mean(), -40.0);
}

TEST(DriftDetectorTest, SustainedShiftFiresOnce) {
  // Regression: a detector that kept its pre-shift statistics would fire
  // on every arrival after a sustained distribution shift. Count
  // drift.fired to pin single-firing.
  Telemetry::Enable();  // drift.fired only counts through the registry
  DriftDetector detector;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(detector.Observe(rng.Gaussian(-10.0, 0.5)));
  }
  const std::uint64_t fired_before = TelemetryCounterValue("drift.fired");
  int flagged = 0;
  // Sustained shift: the statistic settles at a new, much lower level.
  for (int i = 0; i < 40; ++i) {
    if (detector.Observe(-40.0)) ++flagged;
  }
  EXPECT_EQ(flagged, 1);
  EXPECT_EQ(TelemetryCounterValue("drift.fired") - fired_before, 1u);
  // The detector has adapted to the new regime...
  EXPECT_NEAR(detector.mean(), -40.0, 1.0);
  // ...and still fires on the *next* shift.
  EXPECT_TRUE(detector.Observe(-80.0));
}

TEST(DriftDetectorTest, NoDetectionBeforeMinHistory) {
  DriftDetectorConfig config;
  config.min_history = 5;
  DriftDetector detector(config);
  EXPECT_FALSE(detector.Observe(-10.0));
  EXPECT_FALSE(detector.Observe(-10.0));
  EXPECT_FALSE(detector.Observe(-1000.0));  // still warming up
}

TEST(DriftDetectorTest, UpwardJumpIsNotDrift) {
  DriftDetector detector;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) detector.Observe(rng.Gaussian(-10.0, 0.5));
  // Density going *up* means the data got more familiar — never a drift.
  EXPECT_FALSE(detector.Observe(100.0));
}

TEST(DriftDetectorTest, MinStdGuardsConstantHistory) {
  DriftDetectorConfig config;
  config.threshold = 3.0;
  config.min_std = 1.0;
  DriftDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.Observe(-10.0);  // zero variance
  // A drop of 2 is within 3 * min_std = 3: no flag.
  EXPECT_FALSE(detector.Observe(-12.0));
  // A drop of 5 exceeds it.
  EXPECT_TRUE(detector.Observe(-15.0));
}

TEST(DriftDetectorTest, ResetForgets) {
  DriftDetector detector;
  for (int i = 0; i < 10; ++i) detector.Observe(-10.0);
  detector.Reset();
  EXPECT_EQ(detector.history(), 0u);
  EXPECT_FALSE(detector.Observe(-1000.0));  // fresh warm-up
}

// ------------------------------------------------------------- Pool cap

TEST(PoolCapTest, BoundedPoolStillLearns) {
  StationaryConfig sconfig;
  sconfig.scale.samples_per_task = 150;
  sconfig.scale.seed = 11;
  sconfig.dim = 6;
  sconfig.num_tasks = 4;
  const Result<std::vector<Dataset>> stream = MakeStationaryStream(sconfig);
  ASSERT_TRUE(stream.ok());

  ExperimentDefaults defaults;
  defaults.budget_per_task = 40;
  defaults.acquisition_batch = 20;
  defaults.warm_start = 40;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 2;
  Result<std::unique_ptr<QueryStrategy>> strategy =
      MakeStrategy("Random", defaults);
  ASSERT_TRUE(strategy.ok());
  OnlineLearnerConfig config = MakeLearnerConfig(defaults, 6, "Random", 3);
  config.max_pool_size = 80;  // far below 40 + 4*40 unbounded growth
  OnlineLearner learner(config, strategy.value().get());
  const Result<RunResult> run = learner.Run(stream.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Learning still happens on the bounded window.
  EXPECT_GT(run.value().per_task.back().accuracy, 0.6);
}

TEST(PoolCapTest, CapZeroIsUnlimited) {
  StationaryConfig sconfig;
  sconfig.scale.samples_per_task = 120;
  sconfig.scale.seed = 13;
  sconfig.dim = 6;
  sconfig.num_tasks = 2;
  const Result<std::vector<Dataset>> stream = MakeStationaryStream(sconfig);
  ASSERT_TRUE(stream.ok());
  ExperimentDefaults defaults;
  defaults.budget_per_task = 20;
  defaults.acquisition_batch = 10;
  defaults.warm_start = 20;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 1;
  Result<std::unique_ptr<QueryStrategy>> strategy =
      MakeStrategy("Random", defaults);
  ASSERT_TRUE(strategy.ok());
  OnlineLearnerConfig config = MakeLearnerConfig(defaults, 6, "Random", 5);
  config.max_pool_size = 0;
  OnlineLearner learner(config, strategy.value().get());
  EXPECT_TRUE(learner.Run(stream.value()).ok());
}

}  // namespace
}  // namespace faction
