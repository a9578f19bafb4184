#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/presets.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "nn/mlp.h"
#include "stream/online_learner.h"
#include "stream/strategy.h"

namespace faction {
namespace {

std::vector<Dataset> TinyStream(std::size_t tasks, std::size_t samples,
                                std::uint64_t seed) {
  StationaryConfig config;
  config.scale.samples_per_task = samples;
  config.scale.seed = seed;
  config.dim = 6;
  config.num_tasks = tasks;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  EXPECT_TRUE(stream.ok());
  return std::move(stream).value();
}

OnlineLearnerConfig TinyConfig(std::size_t dim, const std::string& method,
                               std::uint64_t seed) {
  ExperimentDefaults defaults;
  defaults.budget_per_task = 20;
  defaults.acquisition_batch = 10;
  defaults.warm_start = 20;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 1;
  return MakeLearnerConfig(defaults, dim, method, seed);
}

// A strategy that records how it was called, for protocol assertions.
class SpyStrategy : public QueryStrategy {
 public:
  std::string name() const override { return "Spy"; }

  Result<std::vector<std::size_t>> SelectBatch(
      const SelectionContext& context, std::size_t batch) override {
    calls.push_back(batch);
    pool_sizes.push_back(context.labeled_pool->size());
    candidate_counts.push_back(context.candidate_features->rows());
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < batch; ++i) picked.push_back(i);
    return picked;
  }

  std::vector<std::size_t> calls;
  std::vector<std::size_t> pool_sizes;
  std::vector<std::size_t> candidate_counts;
};

TEST(OnlineLearnerTest, ProtocolCallPattern) {
  const std::vector<Dataset> tasks = TinyStream(3, 100, 1);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 2);
  OnlineLearner learner(config, &spy);
  const Result<RunResult> run = learner.Run(tasks);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // B=20, A=10: two acquisition iterations per task, three tasks.
  EXPECT_EQ(spy.calls.size(), 6u);
  for (std::size_t batch : spy.calls) EXPECT_EQ(batch, 10u);
  // The labeled pool grows monotonically: warm start 20, then +10 each
  // iteration.
  EXPECT_EQ(spy.pool_sizes[0], 20u);
  EXPECT_EQ(spy.pool_sizes[1], 30u);
  EXPECT_EQ(spy.pool_sizes[2], 40u);
  EXPECT_EQ(spy.pool_sizes[3], 50u);
  // Candidate counts shrink as the task is consumed: task 0 starts with
  // 100 - 20 warm-started samples.
  EXPECT_EQ(spy.candidate_counts[0], 80u);
  EXPECT_EQ(spy.candidate_counts[1], 70u);
  EXPECT_EQ(spy.candidate_counts[2], 100u);  // fresh task, no warm start
}

TEST(OnlineLearnerTest, QueriesCappedByBudget) {
  const std::vector<Dataset> tasks = TinyStream(2, 60, 3);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 4);
  OnlineLearner learner(config, &spy);
  const Result<RunResult> run = learner.Run(tasks);
  ASSERT_TRUE(run.ok());
  for (const TaskMetrics& m : run.value().per_task) {
    EXPECT_EQ(m.queries_used, 20u);
  }
  EXPECT_EQ(run.value().total_queries, 40u);
}

TEST(OnlineLearnerTest, TinyTaskConsumedEntirely) {
  // A task smaller than the budget: every sample ends up labeled, via
  // warm start plus queries, without error.
  std::vector<Dataset> tasks = TinyStream(2, 25, 5);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 6);
  OnlineLearner learner(config, &spy);
  const Result<RunResult> run = learner.Run(tasks);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Task 0: 20 warm + 5 queried = all 25. Task 1: 20 queried (budget).
  EXPECT_EQ(run.value().per_task[0].queries_used, 5u);
  EXPECT_EQ(run.value().per_task[1].queries_used, 20u);
}

TEST(OnlineLearnerTest, RejectsBadBatchConfiguration) {
  const std::vector<Dataset> tasks = TinyStream(1, 50, 7);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 8);
  config.acquisition_batch = 0;
  EXPECT_FALSE(OnlineLearner(config, &spy).Run(tasks).ok());
  config.acquisition_batch = 50;
  config.budget_per_task = 20;  // batch > budget
  EXPECT_FALSE(OnlineLearner(config, &spy).Run(tasks).ok());
}

TEST(OnlineLearnerTest, RejectsEmptyStream) {
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 9);
  EXPECT_FALSE(OnlineLearner(config, &spy).Run({}).ok());
}

// A strategy returning an out-of-range position must fail the run loudly.
class RogueStrategy : public QueryStrategy {
 public:
  std::string name() const override { return "Rogue"; }
  Result<std::vector<std::size_t>> SelectBatch(
      const SelectionContext& context, std::size_t) override {
    return std::vector<std::size_t>{context.candidate_features->rows() + 5};
  }
};

TEST(OnlineLearnerTest, RogueStrategyCaught) {
  const std::vector<Dataset> tasks = TinyStream(1, 60, 11);
  RogueStrategy rogue;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 12);
  const Result<RunResult> run = OnlineLearner(config, &rogue).Run(tasks);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

// A strategy that declines to select ends the task's acquisitions early
// instead of spinning.
class DeclineStrategy : public QueryStrategy {
 public:
  std::string name() const override { return "Decline"; }
  Result<std::vector<std::size_t>> SelectBatch(const SelectionContext&,
                                               std::size_t) override {
    return std::vector<std::size_t>{};
  }
};

TEST(OnlineLearnerTest, DecliningStrategyTerminates) {
  const std::vector<Dataset> tasks = TinyStream(2, 60, 13);
  DeclineStrategy decline;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 14);
  const Result<RunResult> run = OnlineLearner(config, &decline).Run(tasks);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().per_task[0].queries_used, 0u);
}

TEST(OnlineLearnerTest, LearningRateDecaySchedule) {
  // With lr_decay_power = 1 and a spy, we can't observe lr directly, but
  // the run must succeed and remain deterministic.
  const std::vector<Dataset> tasks = TinyStream(3, 60, 15);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 16);
  config.lr_decay_power = 1.0;
  const Result<RunResult> run = OnlineLearner(config, &spy).Run(tasks);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().per_task.size(), 3u);
}

TEST(OnlineLearnerTest, DualAscentRunsAndTracksViolation) {
  const std::vector<Dataset> tasks = TinyStream(4, 80, 17);
  ExperimentDefaults defaults;
  defaults.budget_per_task = 20;
  defaults.acquisition_batch = 10;
  defaults.warm_start = 20;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 1;
  OnlineLearnerConfig config = MakeLearnerConfig(defaults, 6, "FACTION", 18);
  config.dual_ascent = true;
  config.dual_step = 2.0;
  Result<std::unique_ptr<QueryStrategy>> strategy =
      MakeStrategy("FACTION", defaults);
  ASSERT_TRUE(strategy.ok());
  const Result<RunResult> run =
      OnlineLearner(config, strategy.value().get()).Run(tasks);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  double sum = 0.0;
  for (const TaskMetrics& m : run.value().per_task) {
    sum += m.fairness_violation;
  }
  EXPECT_NEAR(run.value().cumulative_violation, sum, 1e-12);
}

TEST(OnlineLearnerTest, WarmStartZeroStillRuns) {
  const std::vector<Dataset> tasks = TinyStream(2, 60, 19);
  ExperimentDefaults defaults;
  defaults.budget_per_task = 20;
  defaults.acquisition_batch = 10;
  defaults.warm_start = 0;
  defaults.hidden_dims = {12, 6};
  defaults.epochs = 1;
  OnlineLearnerConfig config = MakeLearnerConfig(defaults, 6, "Random", 20);
  Result<std::unique_ptr<QueryStrategy>> strategy =
      MakeStrategy("Random", defaults);
  ASSERT_TRUE(strategy.ok());
  const Result<RunResult> run =
      OnlineLearner(config, strategy.value().get()).Run(tasks);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().per_task[0].queries_used, 20u);
}

TEST(OnlineLearnerTest, PerTaskSecondsPositive) {
  const std::vector<Dataset> tasks = TinyStream(2, 60, 21);
  SpyStrategy spy;
  OnlineLearnerConfig config = TinyConfig(6, "Random", 22);
  const Result<RunResult> run = OnlineLearner(config, &spy).Run(tasks);
  ASSERT_TRUE(run.ok());
  for (const TaskMetrics& m : run.value().per_task) {
    EXPECT_GE(m.seconds, 0.0);
  }
  EXPECT_GE(run.value().total_seconds,
            run.value().per_task[0].seconds);
}

// Appends the raw bytes of v: the fingerprint below hashes bits, not text.
void AppendBits(double v, std::string* bytes) {
  char raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  bytes->append(raw, sizeof v);
}

// Hashes the final parameters into *bytes when the learner drops the model
// at the end of Run.
class FingerprintedMlp : public MlpClassifier {
 public:
  FingerprintedMlp(const MlpConfig& config, Rng* rng, std::string* bytes)
      : MlpClassifier(config, rng), bytes_(bytes) {}
  ~FingerprintedMlp() override {
    for (const Matrix* p : std::as_const(*this).Parameters()) {
      for (std::size_t i = 0; i < p->size(); ++i) {
        AppendBits(p->data()[i], bytes_);
      }
    }
  }

 private:
  std::string* bytes_;
};

// FACTION with its fairness penalty over a short NYSF stream at the
// benchmark's shape (12 -> 48 -> 16 -> 2, batch 64, 3 epochs, spectral
// normalization on): the per-task metrics and the final weights must not
// change by one bit. This pins the whole training step — fused dense
// layers, ReLU masks, SGD — and the selection path end to end. The value
// is SubSeed's FNV-1a over the raw bytes. It was recorded when the softmax
// family and the loss moved from libm's exp/log to the SIMD layer's
// vexp/vlog; the same tree with only those calls on libm reproduces the
// previous pins (0x5476e88adb4c63f7, 0x9753fafddd3a089f), which predate
// the fused dense layers.
TEST(OnlineLearnerFingerprint, FactionNysfBitsArePinned) {
  StreamScale scale;
  scale.samples_per_task = 400;
  scale.seed = 3;
  Result<StreamBlueprint> blueprint = MakePaperBlueprint("nysf", scale);
  ASSERT_TRUE(blueprint.ok()) << blueprint.status().ToString();
  blueprint.value().plan.resize(3);
  Result<std::vector<Dataset>> stream = MaterializeStream(blueprint.value());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  ASSERT_EQ(12u, stream.value().front().dim());

  const ExperimentDefaults defaults;
  OnlineLearnerConfig config =
      MakeLearnerConfig(defaults, 12, "FACTION", /*seed=*/17);
  ASSERT_TRUE(config.train.use_fairness_penalty);
  ASSERT_EQ(64u, config.train.batch_size);
  ASSERT_EQ(3, config.train.epochs);
  std::string weights;
  const MlpConfig model = config.model;
  config.model_factory = [model, &weights](Rng* rng) {
    return std::make_unique<FingerprintedMlp>(model, rng, &weights);
  };
  Result<std::unique_ptr<QueryStrategy>> strategy =
      MakeStrategy("FACTION", defaults);
  ASSERT_TRUE(strategy.ok());
  const Result<RunResult> run =
      OnlineLearner(config, strategy.value().get()).Run(stream.value());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::string bytes;
  for (const TaskMetrics& m : run.value().per_task) {
    for (const double v : {m.accuracy, m.ddp, m.eod, m.mi, m.nll,
                           m.fairness_violation}) {
      AppendBits(v, &bytes);
    }
    AppendBits(static_cast<double>(m.queries_used), &bytes);
  }
  ASSERT_EQ(3u, run.value().per_task.size());
  ASSERT_FALSE(weights.empty());
  EXPECT_EQ(0xbc3e63df8fca3b28ull, SubSeed(0, bytes)) << "per-task metrics";
  EXPECT_EQ(0x5b70dc9b709c8d5full, SubSeed(0, weights)) << "final weights";
}

}  // namespace
}  // namespace faction
