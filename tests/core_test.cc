#include <cmath>
#include <set>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/fair_score.h"
#include "core/faction_strategy.h"
#include "core/presets.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "nn/trainer.h"

namespace faction {
namespace {

// Pool with controllable group separation per class, mirroring the
// density tests but consumed by the scorer.
void BuildScorerPool(double group_gap, std::size_t per_cell, Rng* rng,
                     Matrix* features, std::vector<int>* labels,
                     std::vector<int>* sensitive) {
  features->Resize(per_cell * 4, 2);
  labels->clear();
  sensitive->clear();
  std::size_t row = 0;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        (*features)(row, 0) = rng->Gaussian(y * 4.0, 0.6);
        (*features)(row, 1) = rng->Gaussian(s * group_gap / 2.0, 0.6);
        labels->push_back(y);
        sensitive->push_back(s);
        ++row;
      }
    }
  }
}

FairDensityEstimator FitEstimator(double group_gap, Rng* rng) {
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildScorerPool(group_gap, 150, rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  FACTION_CHECK(est.ok());
  return std::move(est).value();
}

// ------------------------------------------------------------ FairScore

TEST(FairScoreTest, ShapeAndValidation) {
  Rng rng(1);
  const FairDensityEstimator est = FitEstimator(2.0, &rng);
  Matrix z(5, 2, 0.0);
  Matrix proba(5, 2, 0.5);
  const Result<std::vector<FactionScore>> scores =
      ComputeFactionScores(est, z, proba, 0.5, true);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores.value().size(), 5u);
  // Mismatched probability shape rejected.
  Matrix bad_proba(4, 2, 0.5);
  EXPECT_FALSE(ComputeFactionScores(est, z, bad_proba, 0.5, true).ok());
  Matrix bad_z(5, 3, 0.0);
  EXPECT_FALSE(ComputeFactionScores(est, bad_z, proba, 0.5, true).ok());
}

TEST(FairScoreTest, OodCandidateGetsLowU) {
  // Low density = high epistemic uncertainty = preferred (low u).
  Rng rng(2);
  const FairDensityEstimator est = FitEstimator(0.0, &rng);
  Matrix z(2, 2);
  z(0, 0) = 0.0;   // in-distribution (class 0 center)
  z(0, 1) = 0.0;
  z(1, 0) = 25.0;  // far OOD
  z(1, 1) = 25.0;
  Matrix proba(2, 2, 0.5);
  const Result<std::vector<FactionScore>> scores =
      ComputeFactionScores(est, z, proba, 0.0, true);
  ASSERT_TRUE(scores.ok());
  EXPECT_LT(scores.value()[1].u, scores.value()[0].u);
  EXPECT_GT(scores.value()[0].log_density,
            scores.value()[1].log_density);
}

TEST(FairScoreTest, UnfairCandidatePreferredUnderLambda) {
  // With separated groups, a candidate at one group's center has a large
  // Delta g; a candidate equidistant between groups has a small one. At
  // comparable density, higher lambda must prefer the unfair one.
  Rng rng(3);
  const FairDensityEstimator est = FitEstimator(3.0, &rng);
  Matrix z(2, 2);
  z(0, 0) = 0.0;
  z(0, 1) = 1.5;   // at the (y=0, s=+1) component center: very unfair
  z(1, 0) = 0.0;
  z(1, 1) = 0.0;   // between the group components: fair
  Matrix proba(2, 2);
  proba(0, 0) = 1.0;  // classifier is sure both are class 0
  proba(0, 1) = 0.0;
  proba(1, 0) = 1.0;
  proba(1, 1) = 0.0;
  const Result<std::vector<FactionScore>> scores =
      ComputeFactionScores(est, z, proba, 5.0, true);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores.value()[0].log_unfairness,
            scores.value()[1].log_unfairness);
  EXPECT_LT(scores.value()[0].u, scores.value()[1].u);
}

TEST(FairScoreTest, FairSelectOffDropsUnfairness) {
  Rng rng(4);
  const FairDensityEstimator est = FitEstimator(3.0, &rng);
  Matrix z(3, 2);
  z(0, 1) = 1.5;
  z(1, 1) = -1.5;
  Matrix proba(3, 2, 0.5);
  const Result<std::vector<FactionScore>> scores =
      ComputeFactionScores(est, z, proba, 5.0, false);
  ASSERT_TRUE(scores.ok());
  for (const FactionScore& s : scores.value()) {
    EXPECT_TRUE(std::isinf(s.log_unfairness));
  }
  // With fair_select off, u is exactly the normalized density term.
  const Result<std::vector<FactionScore>> again =
      ComputeFactionScores(est, z, proba, 0.0, true);
  ASSERT_TRUE(again.ok());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(scores.value()[i].u, again.value()[i].u, 1e-9);
  }
}

TEST(FairScoreTest, LambdaZeroMatchesPureDensity) {
  Rng rng(5);
  const FairDensityEstimator est = FitEstimator(2.0, &rng);
  Matrix z(4, 2);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.Gaussian();
  Matrix proba(4, 2, 0.5);
  const Result<std::vector<FactionScore>> with =
      ComputeFactionScores(est, z, proba, 0.0, true);
  const Result<std::vector<FactionScore>> without =
      ComputeFactionScores(est, z, proba, 0.0, false);
  ASSERT_TRUE(with.ok() && without.ok());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(with.value()[i].u, without.value()[i].u, 1e-12);
  }
}

TEST(FairScoreTest, ClassProbabilityWeighting) {
  // A candidate the classifier assigns to class 1 must weight class 1's
  // Delta g; flipping the posterior flips the unfairness signal when only
  // class 1's groups are separated... construct: classes share centers
  // but only evaluate weighting via proba extremes at a fixed z.
  Rng rng(6);
  const FairDensityEstimator est = FitEstimator(3.0, &rng);
  Matrix z(1, 2);
  z(0, 0) = 4.0;  // class-1 region
  z(0, 1) = 1.5;  // at s=+1 group center
  Matrix proba_c1(1, 2);
  proba_c1(0, 0) = 0.0;
  proba_c1(0, 1) = 1.0;
  Matrix proba_c0(1, 2);
  proba_c0(0, 0) = 1.0;
  proba_c0(0, 1) = 0.0;
  const Result<std::vector<FactionScore>> as_c1 =
      ComputeFactionScores(est, z, proba_c1, 1.0, true);
  const Result<std::vector<FactionScore>> as_c0 =
      ComputeFactionScores(est, z, proba_c0, 1.0, true);
  ASSERT_TRUE(as_c1.ok() && as_c0.ok());
  // z sits in class 1's territory: class 1's Delta g at z dwarfs class
  // 0's, so weighting by the class-1 posterior yields more unfairness.
  EXPECT_GT(as_c1.value()[0].log_unfairness,
            as_c0.value()[0].log_unfairness);
}

// ------------------------------------------------------ FactionStrategy

struct StrategyHarness {
  explicit StrategyHarness(std::uint64_t seed) : rng(seed) {
    StationaryConfig config;
    config.scale.samples_per_task = 260;
    config.scale.seed = seed;
    config.dim = 6;
    config.num_tasks = 1;
    Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
    FACTION_CHECK(stream.ok());
    const Dataset& all = stream.value()[0];
    std::vector<std::size_t> pool_idx, cand_idx;
    for (std::size_t i = 0; i < 180; ++i) pool_idx.push_back(i);
    for (std::size_t i = 180; i < 260; ++i) cand_idx.push_back(i);
    pool = all.Subset(pool_idx);
    const Dataset cand = all.Subset(cand_idx);
    features = cand.features();
    sensitive = cand.sensitive();
    envs = cand.environments();
    MlpConfig mconfig;
    mconfig.input_dim = 6;
    mconfig.hidden_dims = {12, 6};
    Rng model_rng(seed + 1);
    model = std::make_unique<MlpClassifier>(mconfig, &model_rng);
    TrainConfig tconfig;
    tconfig.epochs = 3;
    Rng train_rng(seed + 2);
    FACTION_CHECK(TrainClassifier(model.get(), pool, tconfig, &train_rng).ok());
  }

  SelectionContext Context() {
    SelectionContext ctx;
    ctx.model = model.get();
    ctx.labeled_pool = &pool;
    ctx.candidate_features = &features;
    ctx.candidate_sensitive = &sensitive;
    ctx.candidate_environments = &envs;
    ctx.rng = &rng;
    return ctx;
  }

  Rng rng;
  Dataset pool;
  Matrix features;
  std::vector<int> sensitive;
  std::vector<int> envs;
  std::unique_ptr<MlpClassifier> model;
};

TEST(FactionStrategyTest, ValidBatch) {
  StrategyHarness h(1);
  FactionStrategyConfig config;
  FactionStrategy strategy(config);
  const Result<std::vector<std::size_t>> picked =
      strategy.SelectBatch(h.Context(), 20);
  ASSERT_TRUE(picked.ok()) << picked.status().ToString();
  EXPECT_EQ(picked.value().size(), 20u);
  std::set<std::size_t> unique(picked.value().begin(), picked.value().end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(FactionStrategyTest, NameReflectsAblation) {
  FactionStrategyConfig config;
  EXPECT_EQ(FactionStrategy(config).name(), "FACTION");
  config.fair_select = false;
  EXPECT_EQ(FactionStrategy(config).name(), "FACTION(w/o fair select)");
  config.name_override = "custom";
  EXPECT_EQ(FactionStrategy(config).name(), "custom");
}

TEST(FactionStrategyTest, EmptyPoolFallsBackToRandom) {
  StrategyHarness h(2);
  Dataset empty(6);
  SelectionContext ctx = h.Context();
  ctx.labeled_pool = &empty;
  FactionStrategy strategy(FactionStrategyConfig{});
  const Result<std::vector<std::size_t>> picked =
      strategy.SelectBatch(ctx, 10);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value().size(), 10u);
}

TEST(FactionStrategyTest, SingleClassPoolFallsBack) {
  StrategyHarness h(3);
  std::vector<std::size_t> class0;
  for (std::size_t i = 0; i < h.pool.size(); ++i) {
    if (h.pool.labels()[i] == 0) class0.push_back(i);
  }
  Dataset degenerate = h.pool.Subset(class0);
  SelectionContext ctx = h.Context();
  ctx.labeled_pool = &degenerate;
  FactionStrategy strategy(FactionStrategyConfig{});
  // A single-class pool can still fit (2 of 4 components present), or if
  // both groups are missing it falls back; either way a full batch must
  // come back.
  const Result<std::vector<std::size_t>> picked =
      strategy.SelectBatch(ctx, 10);
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(picked.value().size(), 10u);
}

TEST(FactionStrategyTest, PrefersOodCandidates) {
  StrategyHarness h(4);
  // Half the candidates are far-OOD; FACTION's density term should pull
  // most selections from them.
  Matrix cands = h.features;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < cands.cols(); ++j) {
      cands(i, j) = 30.0;
    }
  }
  SelectionContext ctx = h.Context();
  ctx.candidate_features = &cands;
  FactionStrategyConfig config;
  config.lambda = 0.0;  // isolate the density term
  config.alpha = 100.0;  // near-deterministic acceptance order
  FactionStrategy strategy(config);
  const Result<std::vector<std::size_t>> picked =
      strategy.SelectBatch(ctx, 20);
  ASSERT_TRUE(picked.ok());
  std::size_t ood_hits = 0;
  for (std::size_t idx : picked.value()) {
    if (idx < 40) ++ood_hits;
  }
  EXPECT_GE(ood_hits, 15u);
}

// ------------------------------------- FactionStrategy density forgetting

// Runs `rounds` acquisition rounds of a FactionStrategy over a growing
// labeled pool: the pool starts with 120 rows, and after each round the
// next 25 stream rows are labeled. The model stays fixed, so incremental
// folds and batch refits see the same feature space. Returns every
// round's selection.
std::vector<std::vector<std::size_t>> RunWindowRounds(
    const FactionStrategyConfig& config, int rounds) {
  StationaryConfig sconfig;
  sconfig.scale.samples_per_task = 420;
  sconfig.scale.seed = 31;
  sconfig.dim = 6;
  sconfig.num_tasks = 1;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(sconfig);
  FACTION_CHECK(stream.ok());
  const Dataset& all = stream.value()[0];
  std::vector<std::size_t> head, cand_idx;
  for (std::size_t i = 0; i < 120; ++i) head.push_back(i);
  for (std::size_t i = 340; i < 420; ++i) cand_idx.push_back(i);
  Dataset pool = all.Subset(head);
  const Dataset cand = all.Subset(cand_idx);
  const Matrix features = cand.features();
  const std::vector<int> sensitive = cand.sensitive();
  const std::vector<int> envs = cand.environments();
  MlpConfig mconfig;
  mconfig.input_dim = 6;
  mconfig.hidden_dims = {12, 6};
  Rng model_rng(32);
  MlpClassifier model(mconfig, &model_rng);
  TrainConfig tconfig;
  tconfig.epochs = 3;
  Rng train_rng(33);
  FACTION_CHECK(TrainClassifier(&model, pool, tconfig, &train_rng).ok());

  FactionStrategy strategy(config);
  Rng rng(34);
  SelectionContext ctx;
  ctx.model = &model;
  ctx.labeled_pool = &pool;
  ctx.candidate_features = &features;
  ctx.candidate_sensitive = &sensitive;
  ctx.candidate_environments = &envs;
  ctx.rng = &rng;
  std::vector<std::vector<std::size_t>> picks;
  for (int r = 0; r < rounds; ++r) {
    const Result<std::vector<std::size_t>> picked =
        strategy.SelectBatch(ctx, 20);
    FACTION_CHECK(picked.ok());
    picks.push_back(picked.value());
    for (std::size_t i = 0; i < 25; ++i) {
      FACTION_CHECK(pool.Append(all.Get(120 + 25 * r + i)).ok());
    }
  }
  return picks;
}

// The incremental windowed path (decay, evict the oldest row by a rank-1
// downdate, fold the newest) must track the windowed batch Fit oracle
// (incremental_density = false refits the last W rows every round) to
// DESIGN.md §15's 1e-6 relative tolerance on log-densities. With lambda 0
// and a saturated alpha the selection is the density ranking, so that
// tolerance shows as identical selections. The decay sits 1e-9 below 1:
// every decay step runs (estimator masses, ring weights, downdates at
// decayed weight) while the unit-weight oracle stays within tolerance.
TEST(FactionStrategyWindowTest, IncrementalWindowMatchesBatchOracle) {
  FactionStrategyConfig config;
  config.lambda = 0.0;
  config.alpha = 1e6;
  config.density_window = 60;
  config.density_decay = 1.0 - 1e-9;
  const std::vector<std::vector<std::size_t>> incremental =
      RunWindowRounds(config, 8);
  config.incremental_density = false;
  const std::vector<std::vector<std::size_t>> oracle =
      RunWindowRounds(config, 8);
  ASSERT_EQ(incremental.size(), oracle.size());
  for (std::size_t r = 0; r < oracle.size(); ++r) {
    EXPECT_EQ(std::set<std::size_t>(incremental[r].begin(),
                                    incremental[r].end()),
              std::set<std::size_t>(oracle[r].begin(), oracle[r].end()))
        << "round " << r;
  }
}

// The windowed + decayed incremental path is bitwise deterministic across
// worker counts: every round's selection is identical at 1 and 8 threads.
TEST(FactionStrategyWindowTest, WindowedDecayedSelectionsBitwiseAcrossThreads) {
  FactionStrategyConfig config;
  config.density_window = 60;
  config.density_decay = 0.9;
  const int saved = ParallelThreadCount();
  SetParallelThreadCount(1);
  const std::vector<std::vector<std::size_t>> one = RunWindowRounds(config, 8);
  SetParallelThreadCount(8);
  const std::vector<std::vector<std::size_t>> eight =
      RunWindowRounds(config, 8);
  SetParallelThreadCount(saved);
  EXPECT_EQ(one, eight);
}

// --------------------------------------------------------------- Presets

TEST(PresetsTest, MethodRosters) {
  EXPECT_EQ(AllMethodNames().size(), 8u);
  EXPECT_EQ(FairnessAwareMethodNames().size(), 4u);
  EXPECT_EQ(AblationVariantNames().size(), 5u);
  EXPECT_EQ(AllMethodNames()[0], "FACTION");
}

TEST(PresetsTest, EveryMethodConstructs) {
  ExperimentDefaults defaults;
  for (const std::string& name : AllMethodNames()) {
    const Result<std::unique_ptr<QueryStrategy>> s =
        MakeStrategy(name, defaults);
    ASSERT_TRUE(s.ok()) << name;
    EXPECT_EQ(s.value()->name(), name);
  }
  for (const std::string& name : AblationVariantNames()) {
    const Result<std::unique_ptr<QueryStrategy>> s =
        MakeStrategy(name, defaults);
    ASSERT_TRUE(s.ok()) << name;
    EXPECT_EQ(s.value()->name(), name);
  }
}

TEST(PresetsTest, UnknownMethodRejected) {
  ExperimentDefaults defaults;
  EXPECT_FALSE(MakeStrategy("FACTION++", defaults).ok());
}

TEST(PresetsTest, FairnessPenaltyAssignment) {
  EXPECT_TRUE(MethodUsesFairnessPenalty("FACTION"));
  EXPECT_TRUE(MethodUsesFairnessPenalty("w/o fair select"));
  EXPECT_FALSE(MethodUsesFairnessPenalty("w/o fair reg"));
  EXPECT_FALSE(MethodUsesFairnessPenalty("w/o fair select & fair reg"));
  EXPECT_FALSE(MethodUsesFairnessPenalty("Random"));
  EXPECT_FALSE(MethodUsesFairnessPenalty("QuFUR"));
}

TEST(PresetsTest, LearnerConfigReflectsDefaults) {
  ExperimentDefaults defaults;
  defaults.budget_per_task = 120;
  defaults.acquisition_batch = 30;
  defaults.mu = 1.7;
  const OnlineLearnerConfig config =
      MakeLearnerConfig(defaults, 9, "FACTION", 55);
  EXPECT_EQ(config.budget_per_task, 120u);
  EXPECT_EQ(config.acquisition_batch, 30u);
  EXPECT_EQ(config.model.input_dim, 9u);
  EXPECT_TRUE(config.train.use_fairness_penalty);
  EXPECT_EQ(config.train.fairness.mu, 1.7);
  EXPECT_EQ(config.seed, 55u);
  const OnlineLearnerConfig random_config =
      MakeLearnerConfig(defaults, 9, "Random", 55);
  EXPECT_FALSE(random_config.train.use_fairness_penalty);
}

}  // namespace
}  // namespace faction
