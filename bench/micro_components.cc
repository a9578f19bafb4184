// Component microbenchmarks (google-benchmark): the per-piece cost model
// behind the Fig. 5 runtime comparisons — GDA density fitting, FACTION
// scoring, training steps, metric evaluation, and clustering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/workspace.h"

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "core/fair_score.h"
#include "data/streams.h"
#include "density/fair_density.h"
#include "fairness/metrics.h"
#include "fairness/relaxed.h"
#include "nn/conv.h"
#include "nn/trainer.h"
#include "stream/evaluator.h"
#include "tensor/image.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace faction {
namespace {

Dataset MakePool(std::size_t n, std::size_t dim, std::uint64_t seed) {
  StationaryConfig config;
  config.scale.samples_per_task = n;
  config.scale.seed = seed;
  config.dim = dim;
  config.num_tasks = 1;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  FACTION_CHECK(stream.ok());
  return std::move(stream.value()[0]);
}

void BM_GaussianFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const Dataset pool = MakePool(n, d, 1);
  CovarianceConfig config;
  for (auto _ : state) {
    Result<Gaussian> g = Gaussian::Fit(pool.features(), config);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GaussianFit)->Args({200, 8})->Args({800, 16})->Args({800, 32});

void BM_FairDensityFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset pool = MakePool(n, 16, 2);
  CovarianceConfig config;
  for (auto _ : state) {
    Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
        pool.features(), pool.labels(), pool.sensitive(), config);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FairDensityFit)->Arg(200)->Arg(800)->Arg(3200);

void BM_FactionScoring(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool fair_select = state.range(1) != 0;
  const Dataset pool = MakePool(400, 16, 3);
  const Dataset candidates = MakePool(n, 16, 4);
  CovarianceConfig config;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(est.ok());
  Matrix proba(n, 2, 0.5);
  for (auto _ : state) {
    Result<std::vector<FactionScore>> scores = ComputeFactionScores(
        est.value(), candidates.features(), proba, 0.5, fair_select);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FactionScoring)
    ->Args({400, 1})
    ->Args({1600, 1})
    ->Args({400, 0})
    ->Args({1600, 0});

void BM_TrainEpoch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool fairness = state.range(1) != 0;
  const Dataset pool = MakePool(n, 16, 5);
  Rng rng(7);
  MlpConfig mconfig;
  mconfig.input_dim = 16;
  mconfig.hidden_dims = {48, 16};
  mconfig.spectral.enabled = true;
  TrainConfig tconfig;
  tconfig.epochs = 1;
  tconfig.use_fairness_penalty = fairness;
  tconfig.fairness.mu = 0.6;
  for (auto _ : state) {
    state.PauseTiming();
    Rng model_rng(11);
    MlpClassifier model(mconfig, &model_rng);
    state.ResumeTiming();
    Result<TrainReport> report =
        TrainClassifier(&model, pool, tconfig, &rng);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_TrainEpoch)->Args({800, 0})->Args({800, 1});

void BM_EvaluateOnTask(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset task = MakePool(n, 16, 6);
  Rng rng(13);
  MlpConfig mconfig;
  mconfig.input_dim = 16;
  mconfig.hidden_dims = {48, 16};
  MlpClassifier model(mconfig, &rng);
  for (auto _ : state) {
    Result<TaskMetrics> metrics =
        EvaluateOnTask(model, task, FairnessNotion::kDdp);
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_EvaluateOnTask)->Arg(600)->Arg(2400);

void BM_FairKMeans(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset pool = MakePool(n, 16, 8);
  KMeansConfig config;
  config.k = 50;
  Rng rng(17);
  for (auto _ : state) {
    Result<Clustering> clustering = FairKMeans(
        pool.features(), pool.sensitive(), config, 0.1, &rng);
    benchmark::DoNotOptimize(clustering);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FairKMeans)->Arg(400)->Arg(1600);

void BM_RelaxedFairness(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset pool = MakePool(n, 8, 9);
  std::vector<double> scores(n, 0.5);
  for (auto _ : state) {
    Result<double> v = RelaxedFairness(FairnessNotion::kDdp, scores,
                                       pool.sensitive(), pool.labels());
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_RelaxedFairness)->Arg(1000)->Arg(10000);

void BM_FairnessMetrics(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset pool = MakePool(n, 8, 10);
  std::vector<int> yhat(pool.labels());
  for (auto _ : state) {
    Result<double> ddp =
        DemographicParityDifference(yhat, pool.sensitive());
    Result<double> eod =
        EqualizedOddsDifference(yhat, pool.labels(), pool.sensitive());
    Result<double> mi = MutualInformation(yhat, pool.sensitive());
    benchmark::DoNotOptimize(ddp);
    benchmark::DoNotOptimize(eod);
    benchmark::DoNotOptimize(mi);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_FairnessMetrics)->Arg(1000)->Arg(10000);

// ------------------------------------------- parallel compute layer (PR 2)

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  return m;
}

void BM_MatMul(benchmark::State& state) {
  Rng rng(31);
  const Matrix a = RandomMatrix(800, 256, &rng);
  const Matrix b = RandomMatrix(256, 256, &rng);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 800 * 256 * 256);
}
BENCHMARK(BM_MatMul);

void BM_Conv2dApply(benchmark::State& state) {
  Rng rng(33);
  const ImageShape shape{3, 16, 16};
  Conv2d conv(shape, 8, &rng);
  const Matrix x = RandomMatrix(128, shape.Flat(), &rng);
  for (auto _ : state) {
    Matrix y = conv.ForwardInference(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_Conv2dApply);

// Whole-pool FACTION scoring through the batched path (one blocked solve
// per mixture component shared by the density and fairness terms).
void BM_PoolScoring(benchmark::State& state) {
  const std::size_t n = 2000;
  const Dataset pool = MakePool(400, 16, 35);
  const Dataset candidates = MakePool(n, 16, 36);
  CovarianceConfig config;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(est.ok());
  Matrix proba(n, 2, 0.5);
  for (auto _ : state) {
    Result<std::vector<FactionScore>> scores = ComputeFactionScores(
        est.value(), candidates.features(), proba, 0.5, true);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PoolScoring);

// ------------------------------------------------ workspace trainer

// One full training pass over an 800-row pool of `input_dim` features with
// the persistent Workspace the online learner uses: steady-state
// iterations reuse every batch/gradient buffer. Returns the rows trained
// per iteration.
std::size_t RunTrainStep(benchmark::State& state, std::size_t input_dim) {
  const std::size_t n = 800;
  const Dataset pool = MakePool(n, input_dim, 5);
  Rng rng(7);
  MlpConfig mconfig;
  mconfig.input_dim = input_dim;
  mconfig.hidden_dims = {48, 16};
  mconfig.spectral.enabled = true;
  TrainConfig tconfig;
  tconfig.epochs = 1;
  Workspace workspace;
  for (auto _ : state) {
    state.PauseTiming();
    Rng model_rng(11);
    MlpClassifier model(mconfig, &model_rng);
    state.ResumeTiming();
    Result<TrainReport> report =
        TrainClassifier(&model, pool, tconfig, &rng, &workspace);
    benchmark::DoNotOptimize(report);
  }
  return n;
}

// Arg: input_dim. 12 is NYSF's feature count, narrower than the avx2 and
// avx512 GEMM panels; 16 is a whole panel at every tier.
void BM_TrainStep(benchmark::State& state) {
  const std::size_t n =
      RunTrainStep(state, static_cast<std::size_t>(state.range(0)));
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_TrainStep)->Arg(12)->Arg(16);

// --------------------------- SIMD micro-kernel compute layer (PR 5)

// Pins the dispatch tier for one benchmark run; range(0) indexes
// SimdLevel. Unsupported tiers skip instead of silently measuring the
// fallback.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(ActiveSimdLevel()) {
    ok_ = SetSimdLevel(level).ok();
  }
  ~ScopedSimdLevel() { (void)SetSimdLevel(saved_); }
  bool ok() const { return ok_; }

 private:
  SimdLevel saved_;
  bool ok_ = false;
};

// The per-tier rows run kRepetitions repetitions and report, besides
// Google Benchmark's mean/median/stddev aggregates, their minimum
// (`_min`): on a shared host the mean of one repetition spread 20-40%
// across runs, and interference only adds time, so the fastest repetition
// is the figure to compare tiers and commits by. The statistic applies to
// every counter as well, so these rows report no rate (the minimum of the
// rates is the slowest repetition's) but the time per item: CPU seconds
// over items, whose minimum is the fastest repetition's, as in the time
// columns.
constexpr int kRepetitions = 10;

double MinOf(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

void SetTimePerItem(benchmark::State& state, std::size_t items) {
  state.counters["time_per_item"] = benchmark::Counter(
      static_cast<double>(items),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void PerTier(benchmark::internal::Benchmark* b) {
  b->Repetitions(kRepetitions)
      ->ComputeStatistics("min", MinOf)
      ->ReportAggregatesOnly(true);
}

// Square-GEMM cost of the packed micro-kernel per dispatch tier; an item
// is one FLOP, so time_per_item reads as seconds per FLOP.
void BM_GemmMicroKernel(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  Rng rng(51);
  const std::size_t n = 256;
  const Matrix a = RandomMatrix(n, n, &rng);
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix c;
  for (auto _ : state) {
    MatMulInto(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetTimePerItem(state, 2 * n * n * n);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_GemmMicroKernel)->Arg(0)->Arg(1)->Arg(2)->Apply(PerTier);

// BM_PoolScoring with the dispatch tier pinned: isolates how much of the
// scoring path rides the vectorized solve and transcendental kernels.
// Args: SIMD level, pool rows (7919 is the nysf-8k candidate pool).
void BM_PoolScoringSimd(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const Dataset pool = MakePool(400, 16, 35);
  const Dataset candidates = MakePool(n, 16, 36);
  CovarianceConfig config;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(est.ok());
  Matrix proba(n, 2, 0.5);
  FactionScoreScratch scratch;
  for (auto _ : state) {
    Result<std::vector<FactionScore>> scores = ComputeFactionScores(
        est.value(), candidates.features(), proba, 0.5, true, &scratch);
    benchmark::DoNotOptimize(scores);
  }
  SetTimePerItem(state, n);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_PoolScoringSimd)
    ->ArgsProduct({{0, 1, 2}, {2000, 7919}})
    ->Apply(PerTier);

// The mixture sweep's transcendentals per dispatch tier: one call each of
// vexp, vlog1p and vlog over 7919 elements (one per nysf-8k candidate);
// an item is one element.
void BM_TranscendentalSimd(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  constexpr std::size_t kN = 7919;
  Rng rng(52);
  std::vector<double> exp_in(kN), log_in(kN), log1p_in(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    exp_in[i] = -30.0 * rng.Uniform();
    log_in[i] = 1.0 + 3.0 * rng.Uniform();
    log1p_in[i] = -rng.Uniform();
  }
  const SimdKernels& kern = ActiveSimd();
  for (auto _ : state) {
    kern.vexp(exp_in.data(), out.data(), kN);
    kern.vlog1p(log1p_in.data(), out.data(), kN);
    kern.vlog(log_in.data(), out.data(), kN);
    benchmark::DoNotOptimize(out.data());
  }
  SetTimePerItem(state, 3 * kN);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_TranscendentalSimd)->Arg(0)->Arg(1)->Arg(2)->Apply(PerTier);

// The softmax family per dispatch tier. At 64 rows: one training step's
// FusedSoftmaxCrossEntropy handing its softmax to AddFairnessPenalty, on
// the trainer's 64 x 2 batch. At 7919 rows: SoftmaxRowsInto over a
// nysf-8k candidate pool's 7919 x 2 logits. An item is one row.
// Args: SIMD level, rows.
void BM_SoftmaxLossSimd(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  Rng rng(53);
  const Matrix logits = RandomMatrix(n, 2, &rng);
  std::vector<int> labels(n), sensitive(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    sensitive[i] = i % 3 == 0 ? -1 : 1;
  }
  FairnessPenaltyConfig fairness;
  fairness.epsilon = 0.0;  // the penalty's gradient runs on every batch
  Workspace workspace;
  Matrix dlogits, proba;
  for (auto _ : state) {
    if (n <= 64) {
      benchmark::DoNotOptimize(
          FusedSoftmaxCrossEntropy(logits, labels, &dlogits, &proba));
      benchmark::DoNotOptimize(AddFairnessPenalty(
          proba, labels, sensitive, fairness, &dlogits, &workspace));
    } else {
      SoftmaxRowsInto(logits, &proba);
    }
    benchmark::DoNotOptimize(proba.data());
    benchmark::DoNotOptimize(dlogits.data());
    benchmark::ClobberMemory();
  }
  SetTimePerItem(state, n);
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_SoftmaxLossSimd)
    ->ArgsProduct({{0, 1, 2}, {64, 7919}})
    ->Apply(PerTier);

// BM_TrainStep with the dispatch tier pinned: the MLP training pass is
// GEMM-bound, so this measures the micro-kernel end to end.
// Args: SIMD level, input_dim.
void BM_TrainStepSimd(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  SetTimePerItem(state,
                 RunTrainStep(state, static_cast<std::size_t>(state.range(1))));
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_TrainStepSimd)
    ->ArgsProduct({{0, 1, 2}, {12, 16}})
    ->Apply(PerTier);

// ---------------- sliding-window density forgetting (PR 8)

// Pure eviction cost: rank-1 downdating A=25 previously folded rows out
// of an estimator holding `n`. The paused phase folds the same rows back
// so the estimator is identical at every iteration's start. Runs in
// forgetting mode (ridge regularization), the mode every windowed or
// decayed estimator runs in, where downdates are exact O(d^2) rank-1
// factor updates.
void BM_DensityDowndate(benchmark::State& state) {
  constexpr std::size_t kAcquisition = 25;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 16;
  const Dataset pool = MakePool(n, dim, 41);
  CovarianceConfig config;
  config.forgetting = true;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(est.ok());
  std::size_t cursor = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kAcquisition; ++i) {
      const std::size_t idx = (cursor + i) % n;
      const Status evicted = est.value().DowndateOne(
          pool.features().row_data(idx), pool.labels()[idx],
          pool.sensitive()[idx], config);
      FACTION_CHECK(evicted.ok());
    }
    state.PauseTiming();
    for (std::size_t i = 0; i < kAcquisition; ++i) {
      const std::size_t idx = (cursor + i) % n;
      const Status folded = est.value().UpdateOne(
          pool.features().row_data(idx), pool.labels()[idx],
          pool.sensitive()[idx], config);
      FACTION_CHECK(folded.ok());
    }
    cursor = (cursor + kAcquisition) % n;
    state.ResumeTiming();
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * kAcquisition);
}
BENCHMARK(BM_DensityDowndate)->Arg(2400);

}  // namespace
}  // namespace faction

BENCHMARK_MAIN();
