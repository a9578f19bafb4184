// Component microbenchmarks (google-benchmark): the per-piece cost model
// behind the Fig. 5 runtime comparisons — GDA density fitting, FACTION
// scoring, training steps, metric evaluation, and clustering.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// The pre-parallel serial GEMM (seed ops.cc, ikj order with the zero-skip
// branch), kept verbatim as the speedup baseline for BENCH_PR2.json.
Matrix SeedMatMul(const Matrix& a, const Matrix& b) {
  FACTION_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* orow = out.row_data(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row_data(k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
  return out;
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

void BM_MatMulSeed(benchmark::State& state) {
  Rng rng(31);
  const Matrix a = RandomMatrix(800, 256, &rng);
  const Matrix b = RandomMatrix(256, 256, &rng);
  for (auto _ : state) {
    Matrix c = SeedMatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 800 * 256 * 256);
}
BENCHMARK(BM_MatMulSeed);

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

// The legacy per-sample scoring loop (pre-batching): a marginal-density
// solve per sample plus a second per-component solve pass for the fairness
// term — the BENCH_PR2.json baseline for BM_PoolScoring.
void BM_PoolScoringPerSample(benchmark::State& state) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const std::size_t n = 2000;
  const Dataset pool = MakePool(400, 16, 35);
  const Dataset candidates = MakePool(n, 16, 36);
  CovarianceConfig config;
  Result<FairDensityEstimator> fit = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(fit.ok());
  const FairDensityEstimator& est = fit.value();
  Matrix proba(n, 2, 0.5);
  for (auto _ : state) {
    std::vector<double> log_density(n), log_unfair(n, kNegInf);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> z = candidates.features().Row(i);
      log_density[i] = est.LogMarginalDensity(z);
      std::vector<double> terms;
      for (int c = 0; c < est.domain().num_classes; ++c) {
        const double lp = est.LogComponentDensity(z, c, 1);
        const double ln = est.LogComponentDensity(z, c, -1);
        double log_delta = kNegInf;
        if (std::isfinite(lp) && std::isfinite(ln)) {
          const double hi = lp > ln ? lp : ln;
          const double gap = hi - (lp > ln ? ln : lp);
          if (gap >= 1e-300) log_delta = hi + std::log1p(-std::exp(-gap));
        } else if (std::isfinite(lp) || std::isfinite(ln)) {
          log_delta = std::isfinite(lp) ? lp : ln;
        }
        const double pc = proba(i, static_cast<std::size_t>(c));
        if (std::isfinite(log_delta) && pc > 1e-12) {
          terms.push_back(std::log(pc) + log_delta);
        }
      }
      if (!terms.empty()) log_unfair[i] = LogSumExp(terms);
    }
    benchmark::DoNotOptimize(log_density.data());
    benchmark::DoNotOptimize(log_unfair.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_PoolScoringPerSample);

// ---------------- GEMM conv, workspace trainer, incremental refits (PR 3)

// Serial naive convolution loops: the bitwise-parity baseline for the
// im2col/GEMM lowering (speedup pair for BENCH_PR3.json).
void BM_Conv2dNaive(benchmark::State& state) {
  Rng rng(33);
  const ImageShape shape{3, 16, 16};
  Conv2d conv(shape, 8, &rng);
  const Matrix x = RandomMatrix(128, shape.Flat(), &rng);
  for (auto _ : state) {
    Matrix y = conv.ApplyNaive(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_Conv2dNaive);

// Same convolution through the im2col-lowered GEMM path (identical inputs
// and — bitwise — identical outputs to BM_Conv2dNaive).
void BM_Conv2dIm2col(benchmark::State& state) {
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
BENCHMARK(BM_Conv2dIm2col);

// One full training pass over an 800-row pool of `input_dim` features with
// the persistent Workspace the online learner uses: steady-state
// iterations reuse every batch/gradient buffer.
void RunTrainStep(benchmark::State& state, std::size_t input_dim) {
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
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}

// Arg: input_dim. 12 is NYSF's feature count, narrower than the avx2 and
// avx512 GEMM panels; 16 is a whole panel at every tier.
void BM_TrainStep(benchmark::State& state) {
  RunTrainStep(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_TrainStep)->Arg(12)->Arg(16);

// Full batch refit of the GDA estimator on a pool of `n` rows — the cost
// FACTION used to pay every acquisition round.
void BM_DensityRefitBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dataset pool = MakePool(n, 16, 41);
  CovarianceConfig config;
  for (auto _ : state) {
    Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
        pool.features(), pool.labels(), pool.sensitive(), config);
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_DensityRefitBatch)->Arg(2400);

// Incremental refit: one acquisition round folds A=25 new rows into the
// sufficient statistics of a pool already holding `n` rows. Cost is
// O(A d^2) + one Cholesky per touched component, independent of n.
void BM_DensityRefitIncremental(benchmark::State& state) {
  constexpr std::size_t kAcquisition = 25;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 16;
  const Dataset pool = MakePool(n, dim, 41);
  const Dataset fresh = MakePool(400, dim, 42);
  CovarianceConfig config;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  FACTION_CHECK(est.ok());
  Matrix rows(kAcquisition, dim);
  std::vector<int> ys(kAcquisition), ss(kAcquisition);
  std::size_t cursor = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kAcquisition; ++i) {
      const std::size_t idx = (cursor + i) % fresh.size();
      std::copy(fresh.features().row_data(idx),
                fresh.features().row_data(idx) + dim, rows.row_data(i));
      ys[i] = fresh.labels()[idx];
      ss[i] = fresh.sensitive()[idx];
    }
    cursor = (cursor + kAcquisition) % fresh.size();
    const Status updated = est.value().Update(rows, ys, ss, config);
    FACTION_CHECK(updated.ok());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * kAcquisition);
}
BENCHMARK(BM_DensityRefitIncremental)->Arg(2400);

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

// Square-GEMM throughput of the packed micro-kernel per dispatch tier;
// items processed = FLOPs, so the reported rate reads as FLOP/s.
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
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(2 * n * n * n));
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_GemmMicroKernel)->Arg(0)->Arg(1)->Arg(2);

// BM_PoolScoring with the dispatch tier pinned: isolates how much of the
// scoring path rides the vectorized solve/GEMM kernels.
void BM_PoolScoringSimd(benchmark::State& state) {
  const SimdLevel level = static_cast<SimdLevel>(state.range(0));
  ScopedSimdLevel guard(level);
  if (!guard.ok()) {
    state.SkipWithError("SIMD level unsupported on this host");
    return;
  }
  const std::size_t n = 2000;
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
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_PoolScoringSimd)->Arg(0)->Arg(1)->Arg(2);

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
  RunTrainStep(state, static_cast<std::size_t>(state.range(1)));
  state.SetLabel(SimdLevelName(level));
}
BENCHMARK(BM_TrainStepSimd)->ArgsProduct({{0, 1, 2}, {12, 16}});

// ---------------- sliding-window density forgetting (PR 8)

// Forgetting-mode covariance (ridge regularization): the mode every
// windowed/decayed estimator runs in, where downdates are exact O(d^2)
// rank-1 factor updates.
CovarianceConfig ForgettingConfig() {
  CovarianceConfig config;
  config.forgetting = true;
  return config;
}

// Pure eviction cost: rank-1 downdating A=25 previously folded rows out
// of an estimator holding `n`. The paused phase folds the same rows back
// so the estimator is identical at every iteration's start.
void BM_DensityDowndate(benchmark::State& state) {
  constexpr std::size_t kAcquisition = 25;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 16;
  const Dataset pool = MakePool(n, dim, 41);
  const CovarianceConfig config = ForgettingConfig();
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

// Windowed batch refit: each acquisition round slides a W=2048 window by
// A=25 over an n-row stream and refits the estimator from scratch on the
// window contents — the parity-oracle path (FactionStrategy with
// incremental_density=false and density_window set). O(W d^2) per round.
void BM_WindowedTrainStepBatch(benchmark::State& state) {
  constexpr std::size_t kAcquisition = 25;
  constexpr std::size_t kWindow = 2048;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 16;
  const Dataset pool = MakePool(n, dim, 43);
  const CovarianceConfig config = ForgettingConfig();
  Matrix window(kWindow, dim);
  std::vector<int> ys(kWindow), ss(kWindow);
  std::size_t cursor = 0;
  for (auto _ : state) {
    cursor = (cursor + kAcquisition) % n;
    for (std::size_t i = 0; i < kWindow; ++i) {
      const std::size_t idx = (cursor + i) % n;
      std::copy(pool.features().row_data(idx),
                pool.features().row_data(idx) + dim, window.row_data(i));
      ys[i] = pool.labels()[idx];
      ss[i] = pool.sensitive()[idx];
    }
    Result<FairDensityEstimator> est =
        FairDensityEstimator::Fit(window, ys, ss, config);
    FACTION_CHECK(est.ok());
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * kAcquisition);
}
BENCHMARK(BM_WindowedTrainStepBatch)->Arg(2400);

// Incremental window slide over the same stream: the A=25 arrivals evict
// the 25 oldest rows (rank-1 downdates) and fold the 25 newest (rank-1
// updates) — O(A d^2) per round, independent of the window length. The
// speedup of this over BM_WindowedTrainStepBatch is the
// density_windowed_slide_vs_batch pair in BENCH_PR8.json.
void BM_WindowedTrainStepIncremental(benchmark::State& state) {
  constexpr std::size_t kAcquisition = 25;
  constexpr std::size_t kWindow = 2048;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 16;
  const Dataset pool = MakePool(n, dim, 43);
  const CovarianceConfig config = ForgettingConfig();
  Matrix window(kWindow, dim);
  std::vector<int> ys(kWindow), ss(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    std::copy(pool.features().row_data(i), pool.features().row_data(i) + dim,
              window.row_data(i));
    ys[i] = pool.labels()[i];
    ss[i] = pool.sensitive()[i];
  }
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(window, ys, ss, config);
  FACTION_CHECK(est.ok());
  std::size_t oldest = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kAcquisition; ++i) {
      const std::size_t evict = (oldest + i) % n;
      const std::size_t fold = (oldest + kWindow + i) % n;
      const Status evicted = est.value().DowndateOne(
          pool.features().row_data(evict), pool.labels()[evict],
          pool.sensitive()[evict], config);
      FACTION_CHECK(evicted.ok());
      const Status folded = est.value().UpdateOne(
          pool.features().row_data(fold), pool.labels()[fold],
          pool.sensitive()[fold], config);
      FACTION_CHECK(folded.ok());
    }
    oldest = (oldest + kAcquisition) % n;
    benchmark::DoNotOptimize(est);
  }
  state.SetItemsProcessed(state.iterations() * kAcquisition);
}
BENCHMARK(BM_WindowedTrainStepIncremental)->Arg(2400);

}  // namespace
}  // namespace faction

BENCHMARK_MAIN();
