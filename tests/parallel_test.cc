#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/fair_score.h"
#include "core/presets.h"
#include "core/streaming_faction.h"
#include "data/streams.h"
#include "density/fair_density.h"
#include "density/gaussian.h"
#include "gtest/gtest.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "tensor/image.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace faction {
namespace {

// Restores the ambient thread count when a test scope ends, so thread-count
// mutations never leak across tests.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ParallelThreadCount()) {}
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
}

// ------------------------------------------------------------- pool basics

TEST(ParallelForChunksTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  SetParallelThreadCount(8);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  ParallelForChunks(0, kN, 7,
                    [&](std::size_t, std::size_t i0, std::size_t i1) {
                      for (std::size_t i = i0; i < i1; ++i) ++hits[i];
                    });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForChunksTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  ParallelForChunks(5, 5, 4, [&](std::size_t, std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForChunksTest, ChunkLayoutIsIndependentOfThreadCount) {
  ThreadCountGuard guard;
  constexpr std::size_t kBegin = 3;
  constexpr std::size_t kEnd = 103;
  constexpr std::size_t kGrain = 9;
  const std::size_t nchunks = ParallelChunkCount(kBegin, kEnd, kGrain);
  EXPECT_EQ(nchunks, (kEnd - kBegin + kGrain - 1) / kGrain);
  for (int threads : {1, 5}) {
    SetParallelThreadCount(threads);
    std::vector<std::size_t> begins(nchunks, 0);
    std::vector<std::size_t> ends(nchunks, 0);
    ParallelForChunks(
        kBegin, kEnd, kGrain,
        [&](std::size_t chunk, std::size_t i0, std::size_t i1) {
          begins[chunk] = i0;
          ends[chunk] = i1;
        });
    for (std::size_t c = 0; c < nchunks; ++c) {
      EXPECT_EQ(begins[c], kBegin + c * kGrain);
      EXPECT_EQ(ends[c], std::min(kEnd, kBegin + (c + 1) * kGrain));
    }
  }
}

TEST(ParallelForChunksTest, ParallelChunkCountEdgeCases) {
  EXPECT_EQ(ParallelChunkCount(0, 0, 4), 0u);
  EXPECT_EQ(ParallelChunkCount(0, 3, 100), 1u);
  EXPECT_EQ(ParallelChunkCount(0, 8, 4), 2u);
  EXPECT_EQ(ParallelChunkCount(0, 9, 4), 3u);
}

TEST(ParallelForChunksTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  EXPECT_THROW(ParallelForChunks(0, 100, 1,
                                 [&](std::size_t, std::size_t i0,
                                     std::size_t) {
                                   if (i0 == 42) {
                                     throw std::runtime_error(
                                         "chunk failure");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::vector<int> hits(64, 0);
  ParallelForChunks(0, 64, 4,
                    [&](std::size_t, std::size_t i0, std::size_t i1) {
                      for (std::size_t i = i0; i < i1; ++i) ++hits[i];
                    });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunksTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<int> hits(kOuter * kInner, 0);
  ParallelForChunks(0, kOuter, 1,
                    [&](std::size_t, std::size_t o0, std::size_t o1) {
    for (std::size_t o = o0; o < o1; ++o) {
      ParallelForChunks(0, kInner, 4,
                        [&](std::size_t, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) ++hits[o * kInner + i];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunksTest, ThreadCountClampsToOne) {
  ThreadCountGuard guard;
  SetParallelThreadCount(0);
  EXPECT_EQ(ParallelThreadCount(), 1);
  SetParallelThreadCount(-3);
  EXPECT_EQ(ParallelThreadCount(), 1);
  SetParallelThreadCount(3);
  EXPECT_EQ(ParallelThreadCount(), 3);
}

// --------------------------------------------- tensor kernel determinism

TEST(ParallelDeterminismTest, MatMulBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(11);
  const Matrix a = RandomMatrix(97, 53, &rng);
  const Matrix b = RandomMatrix(53, 61, &rng);
  SetParallelThreadCount(1);
  const Matrix serial = MatMul(a, b);
  for (int threads : {2, 8}) {
    SetParallelThreadCount(threads);
    ExpectBitwiseEqual(serial, MatMul(a, b));
  }
}

TEST(ParallelDeterminismTest, MatMulMatchesNaiveReference) {
  Rng rng(12);
  const Matrix a = RandomMatrix(37, 41, &rng);
  const Matrix b = RandomMatrix(41, 29, &rng);
  const Matrix got = MatMul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      // The blocked kernel reassociates the k-sum, so compare with a small
      // tolerance rather than bitwise.
      EXPECT_NEAR(got(i, j), acc, 1e-10);
    }
  }
}

TEST(ParallelDeterminismTest, TransposedProductsBitwiseIdentical) {
  ThreadCountGuard guard;
  Rng rng(13);
  const Matrix a = RandomMatrix(45, 67, &rng);
  const Matrix b = RandomMatrix(33, 67, &rng);  // for a * b^T
  const Matrix c = RandomMatrix(45, 21, &rng);  // for a^T * c
  SetParallelThreadCount(1);
  const Matrix bt_serial = MatMulBt(a, b);
  const Matrix at_serial = MatMulAt(a, c);
  const Matrix tr_serial = Transpose(a);
  for (int threads : {2, 8}) {
    SetParallelThreadCount(threads);
    ExpectBitwiseEqual(bt_serial, MatMulBt(a, b));
    ExpectBitwiseEqual(at_serial, MatMulAt(a, c));
    ExpectBitwiseEqual(tr_serial, Transpose(a));
  }
}

TEST(ParallelDeterminismTest, RowwiseOpsBitwiseIdentical) {
  ThreadCountGuard guard;
  Rng rng(14);
  const Matrix logits = RandomMatrix(211, 7, &rng);
  SetParallelThreadCount(1);
  const Matrix softmax_serial = SoftmaxRows(logits);
  const std::vector<double> colsums_serial = ColSums(logits);
  for (int threads : {2, 8}) {
    SetParallelThreadCount(threads);
    ExpectBitwiseEqual(softmax_serial, SoftmaxRows(logits));
    const std::vector<double> colsums = ColSums(logits);
    for (std::size_t j = 0; j < colsums.size(); ++j) {
      EXPECT_EQ(colsums[j], colsums_serial[j]);
    }
  }
}

// ------------------------------------------------------ conv determinism

struct ConvRun {
  Matrix out;
  Matrix dx;
  Matrix gw;
  Matrix gb;
};

ConvRun RunConv(int threads, const Matrix& x, const Matrix& dy) {
  SetParallelThreadCount(threads);
  Rng rng(99);  // same seed -> identical weights on every run
  const ImageShape shape{2, 8, 8};
  Conv2d conv(shape, 4, &rng);
  ConvRun run;
  run.out = conv.Forward(x);
  conv.ZeroGrad();
  run.dx = conv.Backward(dy);
  run.gw = *conv.weight_grad();
  run.gb = *conv.bias_grad();
  return run;
}

TEST(ParallelDeterminismTest, ConvForwardBackwardBitwiseIdentical) {
  ThreadCountGuard guard;
  Rng rng(15);
  const ImageShape shape{2, 8, 8};
  const Matrix x = RandomMatrix(9, shape.Flat(), &rng);
  const Matrix dy = RandomMatrix(9, 4 * shape.height * shape.width, &rng);
  const ConvRun serial = RunConv(1, x, dy);
  for (int threads : {2, 8}) {
    const ConvRun parallel = RunConv(threads, x, dy);
    ExpectBitwiseEqual(serial.out, parallel.out);
    ExpectBitwiseEqual(serial.dx, parallel.dx);
    ExpectBitwiseEqual(serial.gw, parallel.gw);
    ExpectBitwiseEqual(serial.gb, parallel.gb);
  }
}

// -------------------------------------------------- batched density paths

TEST(BatchedDensityTest, GaussianBatchMatchesPerSample) {
  ThreadCountGuard guard;
  Rng rng(16);
  const Matrix train = RandomMatrix(200, 12, &rng);
  const Result<Gaussian> fit = Gaussian::Fit(train, CovarianceConfig{});
  ASSERT_TRUE(fit.ok());
  const Gaussian& g = fit.value();
  const Matrix query = RandomMatrix(301, 12, &rng);
  const std::vector<double> batch = g.LogPdfBatch(query);
  ASSERT_EQ(batch.size(), query.rows());
  for (std::size_t i = 0; i < query.rows(); ++i) {
    // The batched solve replays the per-sample operation order, so the
    // match is exact, not approximate.
    EXPECT_EQ(batch[i], g.LogPdf(query.Row(i))) << "row " << i;
  }
  // And bitwise identical for any thread count.
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::vector<double> again = g.LogPdfBatch(query);
    for (std::size_t i = 0; i < query.rows(); ++i) {
      EXPECT_EQ(again[i], batch[i]);
    }
  }
}

// Fits a FairDensityEstimator on a random binary-labeled pool.
FairDensityEstimator FitFairEstimator(Rng* rng, const Matrix& pool,
                                      std::vector<int>* labels,
                                      std::vector<int>* sensitive) {
  labels->resize(pool.rows());
  sensitive->resize(pool.rows());
  for (std::size_t i = 0; i < pool.rows(); ++i) {
    (*labels)[i] = rng->Uniform() < 0.5 ? 0 : 1;
    (*sensitive)[i] = rng->Uniform() < 0.5 ? -1 : 1;
  }
  Result<FairDensityEstimator> fit =
      FairDensityEstimator::Fit(pool, *labels, *sensitive,
                                CovarianceConfig{});
  EXPECT_TRUE(fit.ok());
  return std::move(fit).value();
}

// A row's marginal does not depend on the batch around it: the pool sweep
// and a one-row call agree bit for bit.
TEST(BatchedDensityTest, FairMarginalBatchMatchesPerSample) {
  Rng rng(17);
  const Matrix pool = RandomMatrix(160, 6, &rng);
  std::vector<int> labels, sensitive;
  const FairDensityEstimator est =
      FitFairEstimator(&rng, pool, &labels, &sensitive);
  const Matrix query = RandomMatrix(123, 6, &rng);
  const std::vector<double> batch = est.LogMarginalDensityBatch(query);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    EXPECT_EQ(batch[i], est.LogMarginalDensity(query.Row(i))) << i;
  }
}

// The per-arrival scorer's shape: a one-row ScoreRows call gives, bit for
// bit, that row's log-density and log-unfairness from one pool call, in
// either 256-row block of the pool and for a row infinitely far away.
TEST(BatchedDensityTest, OneRowScoreMatchesPoolRowsBitwise) {
  Rng rng(23);
  const Matrix pool = RandomMatrix(160, 6, &rng);
  std::vector<int> labels, sensitive;
  const FairDensityEstimator est =
      FitFairEstimator(&rng, pool, &labels, &sensitive);
  Matrix query = RandomMatrix(301, 6, &rng);
  for (std::size_t j = 0; j < query.cols(); ++j) {
    query(290, j) = j % 2 == 0 ? 1e200 : -1e200;
  }
  Matrix proba(query.rows(), 2);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    proba(i, 0) = rng.Uniform();
    proba(i, 1) = 1.0 - proba(i, 0);
  }
  std::vector<double> scratch(est.ScoreScratchSize(query.rows()));
  std::vector<double> density(query.rows());
  std::vector<double> unfair(query.rows());
  MixtureScores scores;
  scores.log_density = density.data();
  scores.log_unfairness = unfair.data();
  est.ScoreRows(query, &proba, scratch.data(), &scores);
  EXPECT_EQ(-std::numeric_limits<double>::infinity(), density[290]);

  std::vector<double> one_scratch(est.ScoreScratchSize(1));
  Matrix z(1, query.cols());
  Matrix p(1, 2);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    std::copy(query.row_data(i), query.row_data(i) + query.cols(),
              z.row_data(0));
    p(0, 0) = proba(i, 0);
    p(0, 1) = proba(i, 1);
    double one_density = 0.0;
    double one_unfair = 0.0;
    MixtureScores one;
    one.log_density = &one_density;
    one.log_unfairness = &one_unfair;
    est.ScoreRows(z, &p, one_scratch.data(), &one);
    EXPECT_EQ(Bits(density[i]), Bits(one_density)) << i;
    EXPECT_EQ(Bits(unfair[i]), Bits(one_unfair)) << i;
  }
}

// log sum_{y,s} p(y,s) g(z|y,s) from the per-component oracle, with libm.
double ReferenceLogMarginal(const FairDensityEstimator& est,
                            const std::vector<double>& z,
                            const std::vector<int>& groups) {
  std::vector<double> terms;
  for (int y = 0; y < est.domain().num_classes; ++y) {
    for (int s : groups) {
      const double lc = est.LogComponentDensity(z, y, s);
      if (std::isfinite(lc) && est.Weight(y, s) > 0.0) {
        terms.push_back(lc + std::log(est.Weight(y, s)));
      }
    }
  }
  return terms.empty() ? -std::numeric_limits<double>::infinity()
                       : LogSumExp(terms);
}

TEST(BatchedDensityTest, FairComponentBatchMatchesPerSample) {
  Rng rng(18);
  const Matrix pool = RandomMatrix(140, 5, &rng);
  std::vector<int> labels, sensitive;
  const FairDensityEstimator est =
      FitFairEstimator(&rng, pool, &labels, &sensitive);
  ASSERT_EQ(est.num_components(), 4u);
  const Matrix query = RandomMatrix(77, 5, &rng);
  const std::vector<double> batch = est.LogMarginalDensityBatch(query);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    EXPECT_NEAR(batch[i], ReferenceLogMarginal(est, query.Row(i), {-1, 1}),
                1e-12);
  }
}

// log Delta g_label(z) from the per-component oracle, with libm: the
// largest gap between the class's group densities, a missing component
// counting as density 0.
double ReferenceLogDeltaG(const FairDensityEstimator& est,
                          const std::vector<double>& z, int label,
                          const std::vector<int>& groups) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  double hi = kNegInf;
  double lo = std::numeric_limits<double>::infinity();
  bool has_zero = false;
  for (int s : groups) {
    const double g = est.LogComponentDensity(z, label, s);
    if (!std::isfinite(g)) {
      has_zero = true;
      continue;
    }
    hi = std::max(hi, g);
    lo = std::min(lo, g);
  }
  if (!std::isfinite(hi)) return kNegInf;
  if (has_zero) return hi;
  if (hi - lo < 1e-300) return kNegInf;
  return hi + std::log1p(-std::exp(-(hi - lo)));
}

TEST(BatchedDensityTest, GroupedBatchMatchesPerSampleWithMissingGroup) {
  Rng rng(19);
  const Matrix pool = RandomMatrix(150, 4, &rng);
  std::vector<int> labels(pool.rows());
  std::vector<int> sensitive(pool.rows());
  for (std::size_t i = 0; i < pool.rows(); ++i) {
    labels[i] = rng.Uniform() < 0.5 ? 0 : 1;
    // Group 7 is declared but never observed for class 1, so the gap of
    // class 1 runs the missing-component branch.
    const double u = rng.Uniform();
    sensitive[i] = u < 0.4 ? 2 : (u < 0.8 || labels[i] == 1 ? 5 : 7);
  }
  Result<FairDensityEstimator> fit = FairDensityEstimator::Fit(
      pool, labels, sensitive, CovarianceConfig{}, {2, {2, 5, 7}});
  ASSERT_TRUE(fit.ok());
  const FairDensityEstimator& est = fit.value();
  const Matrix query = RandomMatrix(88, 4, &rng);
  const std::vector<double> marginal = est.LogMarginalDensityBatch(query);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    EXPECT_EQ(marginal[i], est.LogMarginalDensity(query.Row(i)));
    EXPECT_NEAR(marginal[i],
                ReferenceLogMarginal(est, query.Row(i), {2, 5, 7}), 1e-12);
  }
  // With p_label = 1 the unfairness term is log Delta g_label alone.
  std::vector<double> scratch(est.ScoreScratchSize(query.rows()));
  std::vector<double> density(query.rows());
  std::vector<double> log_delta(query.rows());
  for (int label = 0; label < 2; ++label) {
    Matrix proba(query.rows(), 2);
    for (std::size_t i = 0; i < query.rows(); ++i) {
      proba(i, static_cast<std::size_t>(label)) = 1.0;
    }
    MixtureScores scores;
    scores.log_density = density.data();
    scores.log_unfairness = log_delta.data();
    est.ScoreRows(query, &proba, scratch.data(), &scores);
    for (std::size_t i = 0; i < query.rows(); ++i) {
      const double expected =
          ReferenceLogDeltaG(est, query.Row(i), label, {2, 5, 7});
      if (std::isfinite(expected)) {
        EXPECT_NEAR(log_delta[i], expected, 1e-12);
      } else {
        EXPECT_EQ(log_delta[i], expected);
      }
    }
  }
}

// ---------------------------------------------------- pool-scoring parity

// Reference implementation of the unfairness term (Eqs. 4-6) from the
// per-sample public APIs.
double ReferenceLogUnfairness(const FairDensityEstimator& est,
                              const std::vector<double>& z,
                              const Matrix& proba, std::size_t i) {
  std::vector<double> terms;
  for (int c = 0; c < 2; ++c) {
    const double log_delta = ReferenceLogDeltaG(est, z, c, {-1, 1});
    const double pc = proba(i, static_cast<std::size_t>(c));
    if (std::isfinite(log_delta) && pc > 1e-12) {
      terms.push_back(std::log(pc) + log_delta);
    }
  }
  return terms.empty() ? -std::numeric_limits<double>::infinity()
                       : LogSumExp(terms);
}

TEST(BatchedDensityTest, FactionScoresMatchPerSampleReference) {
  Rng rng(20);
  const Matrix pool = RandomMatrix(180, 6, &rng);
  std::vector<int> labels, sensitive;
  const FairDensityEstimator est =
      FitFairEstimator(&rng, pool, &labels, &sensitive);
  const Matrix query = RandomMatrix(97, 6, &rng);
  Matrix proba(query.rows(), 2);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    const double p = rng.Uniform();
    proba(i, 0) = p;
    proba(i, 1) = 1.0 - p;
  }
  const Result<std::vector<FactionScore>> scores =
      ComputeFactionScores(est, query, proba, 0.7, /*fair_select=*/true);
  ASSERT_TRUE(scores.ok());
  for (std::size_t i = 0; i < query.rows(); ++i) {
    const std::vector<double> z = query.Row(i);
    EXPECT_NEAR(scores.value()[i].log_density, est.LogMarginalDensity(z),
                1e-12);
    const double ref = ReferenceLogUnfairness(est, z, proba, i);
    if (std::isfinite(ref)) {
      EXPECT_NEAR(scores.value()[i].log_unfairness, ref, 1e-12);
    } else {
      EXPECT_EQ(scores.value()[i].log_unfairness, ref);
    }
  }
}

TEST(BatchedDensityTest, FactionScoresBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(21);
  const Matrix pool = RandomMatrix(170, 8, &rng);
  std::vector<int> labels, sensitive;
  const FairDensityEstimator est =
      FitFairEstimator(&rng, pool, &labels, &sensitive);
  const Matrix query = RandomMatrix(111, 8, &rng);
  Matrix proba(query.rows(), 2);
  for (std::size_t i = 0; i < query.rows(); ++i) {
    const double p = rng.Uniform();
    proba(i, 0) = p;
    proba(i, 1) = 1.0 - p;
  }
  SetParallelThreadCount(1);
  const Result<std::vector<FactionScore>> serial =
      ComputeFactionScores(est, query, proba, 0.7, /*fair_select=*/true);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    SetParallelThreadCount(threads);
    const Result<std::vector<FactionScore>> parallel =
        ComputeFactionScores(est, query, proba, 0.7, /*fair_select=*/true);
    ASSERT_TRUE(parallel.ok());
    for (std::size_t i = 0; i < query.rows(); ++i) {
      EXPECT_EQ(parallel.value()[i].u, serial.value()[i].u);
      EXPECT_EQ(parallel.value()[i].log_density,
                serial.value()[i].log_density);
      EXPECT_EQ(parallel.value()[i].log_unfairness,
                serial.value()[i].log_unfairness);
    }
  }
}


TEST(ParallelDeterminismTest, FusedLossBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(311);
  const std::size_t n = 500, c = 4;
  Matrix logits = RandomMatrix(n, c, &rng);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % c);

  SetParallelThreadCount(1);
  Matrix d1;
  const double l1 = FusedSoftmaxCrossEntropy(logits, labels, &d1);
  SetParallelThreadCount(8);
  Matrix d8;
  const double l8 = FusedSoftmaxCrossEntropy(logits, labels, &d8);
  EXPECT_EQ(l1, l8);
  ExpectBitwiseEqual(d1, d8);
  // And both match the serial two-pass reference exactly.
  Matrix d_ref;
  const double ref = SoftmaxCrossEntropy(logits, labels, &d_ref);
  EXPECT_EQ(ref, l8);
  ExpectBitwiseEqual(d_ref, d8);
}

TEST(ParallelDeterminismTest,
     IncrementalDensityBitwiseIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(312);
  const std::size_t d = 5;
  CovarianceConfig config;
  Result<Gaussian> g = Gaussian::Fit(RandomMatrix(300, d, &rng), config);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g.value().Update(RandomMatrix(40, d, &rng), config).ok());
  const Matrix probes = RandomMatrix(700, d, &rng);

  SetParallelThreadCount(1);
  const std::vector<double> one = g.value().LogPdfBatch(probes);
  SetParallelThreadCount(8);
  const std::vector<double> eight = g.value().LogPdfBatch(probes);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i], eight[i]) << "probe " << i;
  }
}

// ------------------------------------------------ which code uses the pool

// Regions handed to the pool while `body` runs at 4 threads. The counter
// needs no wall clock, so it shows a dense kernel that went back to the
// pool even where the region is too small to cost anything measurable.
std::uint64_t PoolRegionsAtFourThreads(const std::function<void()>& body) {
  ThreadCountGuard guard;
  SetParallelThreadCount(4);
  Telemetry::Enable()->Reset();
  body();
  const std::uint64_t regions =
      TelemetryCounterValue("parallel.pool_regions");
  Telemetry::Get()->Reset();
  Telemetry::Disable();
  return regions;
}

// Algorithm 1 (FACTION) on a small NYSF stream: training, density fits
// and pool scoring all run on the calling thread.
TEST(PoolRegionsTest, FactionOnNysfRunsNoRegion) {
  NysfConfig config;
  config.scale.samples_per_task = 200;
  config.num_areas = 2;
  config.num_quarters = 2;
  const Result<std::vector<Dataset>> tasks = MakeNysfStream(config);
  ASSERT_TRUE(tasks.ok());
  ExperimentDefaults defaults;
  defaults.budget_per_task = 40;
  defaults.acquisition_batch = 20;
  defaults.warm_start = 40;
  defaults.epochs = 2;
  const std::uint64_t regions = PoolRegionsAtFourThreads([&] {
    const Result<RunResult> run =
        RunMethodOnStream("FACTION", tasks.value(), defaults, 3);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run.value().per_task.size(), tasks.value().size());
  });
  EXPECT_EQ(regions, 0u);
}

// A StreamingFaction session through warm start, scored arrivals and
// several refits.
TEST(PoolRegionsTest, StreamingSessionRunsNoRegion) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {16};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 16;
  config.burn_in = 8;
  config.refit_interval = 16;
  config.density_window = 48;
  std::size_t labels = 0;
  const std::uint64_t regions = PoolRegionsAtFourThreads([&] {
    StreamingFaction session(config);
    Rng rng(41);
    Example ex;
    ex.x.resize(config.model.input_dim);
    for (int i = 0; i < 400; ++i) {
      ex.label = rng.Bernoulli(0.5) ? 1 : 0;
      ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
      for (double& v : ex.x) {
        v = rng.Gaussian(ex.label == 1 ? 1.0 : -1.0, 1.0);
      }
      const Result<bool> query = session.ShouldQuery(ex);
      ASSERT_TRUE(query.ok());
      if (query.value()) {
        ASSERT_TRUE(session.ProvideLabel(ex).ok());
        ++labels;
      }
    }
    ASSERT_TRUE(session.has_estimator());
  });
  EXPECT_GT(labels, 3 * config.refit_interval);
  EXPECT_EQ(regions, 0u);
}

// Conv2d's per-sample forward is the pool's client: a 128-image batch is
// 32 chunks of 4 samples, so it must reach the pool.
TEST(PoolRegionsTest, Conv2dForwardUsesThePool) {
  Rng rng(42);
  const ImageShape shape{2, 8, 8};
  const Conv2d conv(shape, 4, &rng);
  const Matrix x = RandomMatrix(128, shape.Flat(), &rng);
  const std::uint64_t regions = PoolRegionsAtFourThreads([&] {
    ASSERT_EQ(conv.ForwardInference(x).rows(), x.rows());
  });
  EXPECT_GE(regions, 1u);
}

}  // namespace
}  // namespace faction
