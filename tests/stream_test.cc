#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "nn/mlp.h"
#include "stream/evaluator.h"
#include "stream/oracle.h"
#include "stream/selection.h"

namespace faction {
namespace {

Dataset SmallTask(std::size_t n = 20, std::uint64_t seed = 1) {
  StationaryConfig config;
  config.scale.samples_per_task = n;
  config.scale.seed = seed;
  config.dim = 4;
  config.num_tasks = 1;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  EXPECT_TRUE(stream.ok());
  return std::move(stream.value()[0]);
}

// ---------------------------------------------------------------- Oracle

TEST(OracleTest, QueryConsumesBudget) {
  const Dataset task = SmallTask();
  LabelOracle oracle(task, 3);
  EXPECT_EQ(oracle.budget_remaining(), 3u);
  EXPECT_EQ(oracle.num_unlabeled(), 20u);
  const Result<int> label = oracle.QueryLabel(5);
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(label.value(), task.labels()[5]);
  EXPECT_EQ(oracle.budget_remaining(), 2u);
  EXPECT_EQ(oracle.queries_used(), 1u);
  EXPECT_TRUE(oracle.IsLabeled(5));
  EXPECT_EQ(oracle.num_unlabeled(), 19u);
}

TEST(OracleTest, DoubleQueryRejected) {
  const Dataset task = SmallTask();
  LabelOracle oracle(task, 5);
  ASSERT_TRUE(oracle.QueryLabel(0).ok());
  const Result<int> again = oracle.QueryLabel(0);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(oracle.budget_remaining(), 4u);  // no budget consumed
}

TEST(OracleTest, BudgetExhaustion) {
  const Dataset task = SmallTask();
  LabelOracle oracle(task, 2);
  ASSERT_TRUE(oracle.QueryLabel(0).ok());
  ASSERT_TRUE(oracle.QueryLabel(1).ok());
  const Result<int> over = oracle.QueryLabel(2);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST(OracleTest, OutOfRangeRejected) {
  const Dataset task = SmallTask();
  LabelOracle oracle(task, 2);
  EXPECT_FALSE(oracle.QueryLabel(task.size()).ok());
}

TEST(OracleTest, FreeRevealSkipsBudget) {
  const Dataset task = SmallTask();
  LabelOracle oracle(task, 1);
  const Result<int> label = oracle.RevealFree(3);
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(oracle.budget_remaining(), 1u);
  EXPECT_EQ(oracle.queries_used(), 0u);
  EXPECT_TRUE(oracle.IsLabeled(3));
  EXPECT_FALSE(oracle.RevealFree(3).ok());
}

TEST(OracleTest, UnlabeledIndicesTrackState) {
  const Dataset task = SmallTask(5);
  LabelOracle oracle(task, 5);
  ASSERT_TRUE(oracle.QueryLabel(1).ok());
  ASSERT_TRUE(oracle.QueryLabel(3).ok());
  std::vector<std::size_t> unlabeled = {7};
  oracle.UnlabeledIndicesInto(&unlabeled);
  EXPECT_EQ(unlabeled, (std::vector<std::size_t>{0, 2, 4}));
}

// ------------------------------------------------------------- Selection

TEST(SelectionTest, MinMaxNormalizeRange) {
  const std::vector<double> scores = {1.0, 5.0, 3.0};
  const std::vector<double> norm = MinMaxNormalize(scores);
  EXPECT_NEAR(norm[0], 0.0, 1e-12);
  EXPECT_NEAR(norm[1], 1.0, 1e-12);
  EXPECT_NEAR(norm[2], 0.5, 1e-12);
}

TEST(SelectionTest, MinMaxNormalizeConstant) {
  const std::vector<double> norm = MinMaxNormalize({2.0, 2.0, 2.0});
  for (double v : norm) EXPECT_EQ(v, 0.5);
}

TEST(SelectionTest, MinMaxNormalizeEmpty) {
  EXPECT_TRUE(MinMaxNormalize({}).empty());
}

TEST(SelectionTest, MinMaxNormalizeAffineInvariance) {
  // Normalize(a*x + b) == Normalize(x) for a > 0 — the property that makes
  // the log-shift in the density scorer selection-neutral.
  Rng rng(2);
  std::vector<double> x(50);
  for (double& v : x) v = rng.Gaussian();
  const std::vector<double> base = MinMaxNormalize(x);
  std::vector<double> transformed(x);
  for (double& v : transformed) v = 3.7 * v + 11.0;
  const std::vector<double> after = MinMaxNormalize(transformed);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(base[i], after[i], 1e-9);
  }
}

TEST(SelectionTest, TopKOrdersDescending) {
  const std::vector<double> scores = {0.1, 0.9, 0.5, 0.7};
  EXPECT_EQ(TopK(scores, 2), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(TopK(scores, 10).size(), 4u);
}

TEST(SelectionTest, TopKStableTies) {
  const std::vector<double> scores = {1.0, 1.0, 1.0};
  EXPECT_EQ(TopK(scores, 2), (std::vector<std::size_t>{0, 1}));
}

TEST(BernoulliSelectTest, RespectsBatchSizeAndUniqueness) {
  Rng rng(3);
  std::vector<double> omega(100);
  for (double& w : omega) w = rng.Uniform();
  const std::vector<std::size_t> picked = BernoulliSelect(omega, 2.0, 30, &rng);
  EXPECT_EQ(picked.size(), 30u);
  const std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t idx : picked) EXPECT_LT(idx, 100u);
}

TEST(BernoulliSelectTest, SmallPoolReturnsAll) {
  Rng rng(4);
  const std::vector<double> omega = {0.5, 0.1, 0.9};
  const std::vector<std::size_t> picked = BernoulliSelect(omega, 1.0, 10, &rng);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(BernoulliSelectTest, ZeroAlphaFallsBackDeterministically) {
  Rng rng(5);
  const std::vector<double> omega = {0.9, 0.5, 0.1, 0.7};
  const std::vector<std::size_t> picked = BernoulliSelect(omega, 0.0, 2, &rng);
  // No trial ever fires; the fallback fills in descending omega order.
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, 3}));
}

// The eager form the lazy prefix sort replaced: the whole pool
// stable-sorted up front (NaN as -inf), then the same pass loop and
// exhaustion fallback.
std::vector<std::size_t> EagerBernoulliSelect(const std::vector<double>& omega,
                                              double alpha, std::size_t batch,
                                              Rng* rng) {
  const auto key = [](double v) {
    return std::isnan(v) ? -std::numeric_limits<double>::infinity() : v;
  };
  std::vector<std::size_t> order(omega.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key(omega[a]) > key(omega[b]);
                   });
  std::vector<std::size_t> accepted;
  std::vector<char> taken(omega.size(), 0);
  const std::size_t want = std::min(batch, omega.size());
  int idle = 0;
  while (accepted.size() < want && idle < 64) {
    bool progressed = false;
    for (std::size_t idx : order) {
      if (accepted.size() >= want) break;
      if (taken[idx] != 0) continue;
      const double raw = alpha * omega[idx];
      if (rng->Bernoulli(std::isnan(raw) ? 0.0 : std::min(raw, 1.0))) {
        taken[idx] = 1;
        accepted.push_back(idx);
        progressed = true;
      }
    }
    idle = progressed ? 0 : idle + 1;
  }
  for (std::size_t idx : order) {
    if (accepted.size() >= want) break;
    if (taken[idx] == 0) {
      taken[idx] = 1;
      accepted.push_back(idx);
    }
  }
  return accepted;
}

// The lazily sorted visit order must reproduce the full stable sort's
// picks and RNG consumption exactly: over tie-heavy omegas with NaN, in
// one pass (large alpha), over many passes (tiny alpha, so the prefix
// grows to the whole pool) and through the exhaustion fallback (alpha 0,
// and NaN alpha).
TEST(BernoulliSelectTest, LazyOrderMatchesFullStableSort) {
  Rng data(41);
  SelectionScratch scratch;
  std::vector<std::size_t> lazy;
  for (const std::size_t n : {0u, 1u, 7u, 100u, 1000u, 3000u}) {
    std::vector<double> omega(n);
    for (double& w : omega) {
      // Two decimals: many exact ties. About one in nine is NaN.
      w = std::round(data.Uniform() * 100.0) / 100.0;
      if (data.Uniform() < 0.11) w = std::numeric_limits<double>::quiet_NaN();
    }
    for (const double alpha :
         {3.0, 0.8, 0.002, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
      for (const std::size_t batch : {0u, 1u, 5u, 50u, 400u, 5000u}) {
        Rng eager_rng(n * 7919 + batch);
        Rng lazy_rng(n * 7919 + batch);
        const std::vector<std::size_t> eager =
            EagerBernoulliSelect(omega, alpha, batch, &eager_rng);
        BernoulliSelectInto(omega, alpha, batch, &lazy_rng, &scratch, &lazy);
        ASSERT_EQ(eager, lazy) << "n " << n << " alpha " << alpha
                               << " batch " << batch;
        ASSERT_EQ(eager_rng.NextU64(), lazy_rng.NextU64())
            << "n " << n << " alpha " << alpha << " batch " << batch;
      }
    }
  }
}

TEST(BernoulliSelectTest, PrefersHighProbabilityCandidates) {
  // Across many trials, omega = 1 candidates are accepted far more often
  // than omega ~ 0 candidates.
  Rng rng(6);
  std::vector<double> omega(20, 0.02);
  for (std::size_t i = 0; i < 5; ++i) omega[i] = 1.0;
  std::size_t high_hits = 0, low_hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    for (std::size_t idx : BernoulliSelect(omega, 1.0, 5, &rng)) {
      (idx < 5 ? high_hits : low_hits) += 1;
    }
  }
  EXPECT_GT(high_hits, low_hits * 3);
}

TEST(BernoulliSelectTest, HugeAlphaActsGreedy) {
  Rng rng(7);
  const std::vector<double> omega = {0.01, 0.9, 0.5};
  // alpha large enough that every probability saturates to 1: candidates
  // are accepted in descending omega order.
  const std::vector<std::size_t> picked =
      BernoulliSelect(omega, 1e6, 2, &rng);
  EXPECT_EQ(picked, (std::vector<std::size_t>{1, 2}));
}

TEST(BernoulliSelectTest, EmptyPool) {
  Rng rng(8);
  EXPECT_TRUE(BernoulliSelect({}, 1.0, 5, &rng).empty());
}

TEST(SelectionTest, TopKNanScoresOrderLast) {
  // NaN scores sort after every finite score (treated as -inf, stable by
  // index). The raw `a > b` comparator was not a strict weak ordering on
  // NaN input — this is the regression test for that sanitization.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> scores = {nan, 1.0, nan, 2.0};
  EXPECT_EQ(TopK(scores, 3), (std::vector<std::size_t>{3, 1, 0}));
  EXPECT_EQ(TopK(scores, 10).size(), 4u);
}

TEST(BernoulliSelectTest, NanOmegaVisitsLastAndNeverFires) {
  Rng rng(9);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> omega = {0.2, nan, 0.9, nan, 0.5};
  // Saturating alpha accepts every candidate with a well-defined
  // probability on the first pass (descending omega: 2, 4, 0); the NaN
  // candidates have trial probability 0 and only enter through the
  // deterministic exhaustion fallback, in their sorted (index) order.
  const std::vector<std::size_t> picked =
      BernoulliSelect(omega, 1e9, 5, &rng);
  EXPECT_EQ(picked, (std::vector<std::size_t>{2, 4, 0, 1, 3}));
}

TEST(BernoulliSelectTest, ScratchReuseMatchesFreshCalls) {
  // Same seed with and without a reused scratch must pick identically.
  const std::vector<double> omega = {0.7, 0.1, 0.9, 0.4, 0.6, 0.2};
  SelectionScratch scratch;
  Rng fresh(21), reused(21);
  for (int round = 0; round < 5; ++round) {
    const std::vector<std::size_t> a =
        BernoulliSelect(omega, 1.5, 3, &fresh);
    const std::vector<std::size_t> b =
        BernoulliSelect(omega, 1.5, 3, &reused, &scratch);
    EXPECT_EQ(a, b) << "round " << round;
  }
}

TEST(SelectionTest, MinMaxNormalizeIntoReusesBuffer) {
  std::vector<double> out;
  MinMaxNormalizeInto({1.0, 3.0, 2.0}, &out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  const double* prev = out.data();
  MinMaxNormalizeInto({5.0, 6.0}, &out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.data(), prev);  // capacity retained, no reallocation
  EXPECT_DOUBLE_EQ(out[1], 1.0);
}

// ------------------------------------------------------------- Evaluator

TEST(EvaluatorTest, PerfectModelMetrics) {
  // A task whose labels are exactly determined by the sign of feature 0,
  // evaluated by a hand-built "model"... easier: evaluate a trained model
  // on its own training data after hard separation. Instead, construct a
  // task with labels equal to a threshold on feature 0 and check a model
  // that learned it approximately has high accuracy and finite metrics.
  const Dataset task = SmallTask(200, 5);
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {8};
  MlpClassifier model(config, &rng);
  const Result<TaskMetrics> metrics =
      EvaluateOnTask(model, task, FairnessNotion::kDdp);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics.value().accuracy, 0.0);
  EXPECT_LE(metrics.value().accuracy, 1.0);
  EXPECT_GE(metrics.value().ddp, 0.0);
  EXPECT_GE(metrics.value().nll, 0.0);
  EXPECT_GE(metrics.value().fairness_violation, 0.0);
  EXPECT_EQ(metrics.value().environment, 0);
}

TEST(EvaluatorTest, RejectsEmptyTask) {
  Rng rng(10);
  MlpConfig config;
  config.input_dim = 4;
  MlpClassifier model(config, &rng);
  Dataset empty(4);
  EXPECT_FALSE(EvaluateOnTask(model, empty, FairnessNotion::kDdp).ok());
}

TEST(EvaluatorTest, SummarizeAverages) {
  TaskMetrics a, b;
  a.accuracy = 0.8;
  a.ddp = 0.2;
  a.eod = 0.1;
  a.mi = 0.04;
  a.seconds = 1.0;
  a.queries_used = 100;
  b.accuracy = 0.6;
  b.ddp = 0.4;
  b.eod = 0.3;
  b.mi = 0.08;
  b.seconds = 2.0;
  b.queries_used = 50;
  const StreamSummary s = Summarize({a, b});
  EXPECT_NEAR(s.mean_accuracy, 0.7, 1e-12);
  EXPECT_NEAR(s.mean_ddp, 0.3, 1e-12);
  EXPECT_NEAR(s.mean_eod, 0.2, 1e-12);
  EXPECT_NEAR(s.mean_mi, 0.06, 1e-12);
  EXPECT_NEAR(s.total_seconds, 3.0, 1e-12);
  EXPECT_EQ(s.total_queries, 150u);
}

TEST(EvaluatorTest, SummarizeEmpty) {
  const StreamSummary s = Summarize({});
  EXPECT_EQ(s.mean_accuracy, 0.0);
  EXPECT_EQ(s.total_queries, 0u);
}

// Regression: before the undefined-metric fix, a task whose samples all
// share one sensitive group reported DDP = EOD = 0.0 — a failed
// computation masquerading as perfect fairness.
TEST(EvaluatorTest, SingleGroupTaskReportsUndefinedNotZero) {
  Dataset task(2);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    Example e;
    e.label = i % 2;
    e.sensitive = 1;  // every sample in group +1
    e.x = {rng.Gaussian(), rng.Gaussian()};
    ASSERT_TRUE(task.Append(e).ok());
  }
  Rng model_rng(4);
  MlpConfig config;
  config.input_dim = 2;
  config.hidden_dims = {4};
  MlpClassifier model(config, &model_rng);
  const Result<TaskMetrics> metrics =
      EvaluateOnTask(model, task, FairnessNotion::kDdp);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const TaskMetrics& m = metrics.value();
  EXPECT_FALSE(m.ddp_defined);
  EXPECT_TRUE(std::isnan(m.ddp));
  EXPECT_FALSE(m.eod_defined);
  EXPECT_TRUE(std::isnan(m.eod));
  // MI of a one-group task is 0 (the joint factorizes), i.e. defined.
  EXPECT_TRUE(m.mi_defined);
  EXPECT_EQ(m.mi, 0.0);
  EXPECT_TRUE(m.AnyMetricUndefined());
}

// Undefined tasks are excluded from the stream means rather than dragged
// in as zeros, and are counted explicitly.
TEST(EvaluatorTest, SummarizeExcludesUndefinedTasks) {
  TaskMetrics ok1, ok2, degenerate;
  ok1.ddp = 0.2;
  ok1.eod = 0.1;
  ok1.mi = 0.04;
  ok2.ddp = 0.4;
  ok2.eod = 0.3;
  ok2.mi = 0.08;
  degenerate.ddp = std::numeric_limits<double>::quiet_NaN();
  degenerate.ddp_defined = false;
  degenerate.eod = std::numeric_limits<double>::quiet_NaN();
  degenerate.eod_defined = false;
  degenerate.mi = 0.0;  // MI stays defined on single-group tasks
  const StreamSummary s = Summarize({ok1, degenerate, ok2});
  EXPECT_NEAR(s.mean_ddp, 0.3, 1e-12);
  EXPECT_NEAR(s.mean_eod, 0.2, 1e-12);
  EXPECT_NEAR(s.mean_mi, 0.04, 1e-12);
  EXPECT_EQ(s.ddp_defined_tasks, 2u);
  EXPECT_EQ(s.eod_defined_tasks, 2u);
  EXPECT_EQ(s.mi_defined_tasks, 3u);
  EXPECT_EQ(s.undefined_metric_tasks, 1u);
}

// When NO task defines a metric, its mean is NaN — never a fabricated 0.
TEST(EvaluatorTest, SummarizeAllUndefinedMeanIsNan) {
  TaskMetrics m;
  m.ddp = std::numeric_limits<double>::quiet_NaN();
  m.ddp_defined = false;
  const StreamSummary s = Summarize({m});
  EXPECT_TRUE(std::isnan(s.mean_ddp));
  EXPECT_EQ(s.ddp_defined_tasks, 0u);
  EXPECT_EQ(s.undefined_metric_tasks, 1u);
}

}  // namespace
}  // namespace faction
