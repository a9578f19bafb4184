#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/dataset.h"
#include "density/density_window.h"
#include "density/fair_density.h"
#include "density/gaussian.h"
#include "gtest/gtest.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace faction {
namespace {

Matrix DrawSamples(std::size_t n, const std::vector<double>& mean,
                   double stddev, Rng* rng) {
  Matrix out(n, mean.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < mean.size(); ++j) {
      out(i, j) = rng->Gaussian(mean[j], stddev);
    }
  }
  return out;
}

// ------------------------------------------------------------- Gaussian

TEST(GaussianTest, RecoversMean) {
  Rng rng(1);
  const std::vector<double> mean = {2.0, -1.0, 0.5};
  const Matrix samples = DrawSamples(5000, mean, 1.0, &rng);
  CovarianceConfig config;
  config.shrinkage = 0.0;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(g.value().mean()[j], mean[j], 0.05);
  }
}

TEST(GaussianTest, LogPdfMatchesStandardNormal) {
  // Fit on many standard-normal samples; at the origin the density should
  // approach the analytic N(0, I) value.
  Rng rng(2);
  const std::vector<double> mean = {0.0, 0.0};
  const Matrix samples = DrawSamples(20000, mean, 1.0, &rng);
  CovarianceConfig config;
  config.shrinkage = 0.0;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  const double expect = -std::log(2.0 * M_PI);  // log N(0; 0, I) in 2-d
  EXPECT_NEAR(g.value().LogPdf({0.0, 0.0}), expect, 0.05);
}

TEST(GaussianTest, DensityDecaysWithDistance) {
  Rng rng(3);
  const Matrix samples = DrawSamples(500, {0.0, 0.0, 0.0, 0.0}, 1.0, &rng);
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  const double near = g.value().LogPdf({0.1, 0.0, 0.0, 0.0});
  const double far = g.value().LogPdf({5.0, 5.0, 5.0, 5.0});
  EXPECT_GT(near, far + 10.0);
}

TEST(GaussianTest, MahalanobisOfMeanIsZero) {
  Rng rng(4);
  const Matrix samples = DrawSamples(200, {1.0, 2.0}, 0.5, &rng);
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  EXPECT_NEAR(g.value().MahalanobisSquared(g.value().mean()), 0.0, 1e-12);
}

TEST(GaussianTest, SingleSampleFallsBackToIdentity) {
  Matrix samples(1, 3);
  samples(0, 0) = 1.0;
  samples(0, 1) = 2.0;
  samples(0, 2) = 3.0;
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config, 2.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().mean(), (std::vector<double>{1.0, 2.0, 3.0}));
  // Identity * 2 => Mahalanobis of (mean + e0) is 1/2.
  EXPECT_NEAR(g.value().MahalanobisSquared({2.0, 2.0, 3.0}), 0.5, 1e-6);
}

TEST(GaussianTest, DegenerateDataSurvivesViaJitter) {
  // All samples identical: covariance is zero; jitter must rescue the fit.
  Matrix samples(50, 4, 3.0);
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(std::isfinite(g.value().LogPdf({3.0, 3.0, 3.0, 3.0})));
}

TEST(GaussianTest, CollinearDataSurvives) {
  // Samples on a line: rank-1 covariance.
  Matrix samples(100, 3);
  Rng rng(5);
  for (std::size_t i = 0; i < 100; ++i) {
    const double t = rng.Gaussian();
    samples(i, 0) = t;
    samples(i, 1) = 2.0 * t;
    samples(i, 2) = -t;
  }
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(std::isfinite(g.value().LogPdf({0.0, 0.0, 0.0})));
}

TEST(GaussianTest, RejectsEmpty) {
  const Matrix samples(0, 3);
  CovarianceConfig config;
  EXPECT_FALSE(Gaussian::Fit(samples, config).ok());
}

TEST(GaussianTest, ShrinkageMovesTowardIsotropy) {
  // Strongly anisotropic data; heavy shrinkage should pull the two
  // principal variances together, reducing |logpdf| asymmetry.
  Rng rng(6);
  Matrix samples(2000, 2);
  for (std::size_t i = 0; i < 2000; ++i) {
    samples(i, 0) = rng.Gaussian(0.0, 3.0);
    samples(i, 1) = rng.Gaussian(0.0, 0.3);
  }
  CovarianceConfig none;
  none.shrinkage = 0.0;
  CovarianceConfig heavy;
  heavy.shrinkage = 0.9;
  const Result<Gaussian> g0 = Gaussian::Fit(samples, none);
  const Result<Gaussian> g1 = Gaussian::Fit(samples, heavy);
  ASSERT_TRUE(g0.ok() && g1.ok());
  // Along the low-variance axis the unshrunk fit reacts much more.
  const double react0 = g0.value().MahalanobisSquared({0.0, 1.0});
  const double react1 = g1.value().MahalanobisSquared({0.0, 1.0});
  EXPECT_GT(react0, react1 * 2.0);
}

// -------------------------------------------------- FairDensityEstimator

// A labeled pool with controllable group/class separation.
struct PoolSpec {
  std::size_t per_cell = 100;
  double group_gap = 2.0;  // distance between sensitive groups
  double class_gap = 4.0;  // distance between classes
};

void BuildPool(const PoolSpec& spec, Rng* rng, Matrix* features,
               std::vector<int>* labels, std::vector<int>* sensitive) {
  const std::size_t total = spec.per_cell * 4;
  features->Resize(total, 2);
  labels->clear();
  sensitive->clear();
  std::size_t row = 0;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      for (std::size_t i = 0; i < spec.per_cell; ++i) {
        (*features)(row, 0) =
            rng->Gaussian(y * spec.class_gap, 0.6);
        (*features)(row, 1) =
            rng->Gaussian(s * spec.group_gap / 2.0, 0.6);
        labels->push_back(y);
        sensitive->push_back(s);
        ++row;
      }
    }
  }
}

TEST(FairDensityTest, WeightsMatchEmpiricalJoint) {
  Rng rng(7);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      EXPECT_TRUE(est.value().HasComponent(y, s));
      EXPECT_NEAR(est.value().Weight(y, s), 0.25, 1e-12);
    }
  }
}

TEST(FairDensityTest, MarginalIsMixtureOfComponents) {
  Rng rng(8);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  const std::vector<double> z = {0.5, 0.5};
  double mixture = 0.0;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      mixture += est.value().Weight(y, s) *
                 std::exp(est.value().LogComponentDensity(z, y, s));
    }
  }
  EXPECT_NEAR(std::exp(est.value().LogMarginalDensity(z)), mixture, 1e-9);
}

TEST(FairDensityTest, OodSampleHasLowerDensity) {
  Rng rng(9);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  const double in_dist = est.value().LogMarginalDensity({0.0, 1.0});
  const double ood = est.value().LogMarginalDensity({30.0, -30.0});
  EXPECT_GT(in_dist, ood + 50.0);
}

TEST(FairDensityTest, DeltaGZeroWhenGroupsCoincide) {
  // group_gap = 0: both sensitive components of each class share the same
  // distribution, so Delta g_c must be tiny everywhere in-distribution.
  Rng rng(10);
  Matrix features;
  std::vector<int> labels, sensitive;
  PoolSpec spec;
  spec.group_gap = 0.0;
  spec.per_cell = 400;
  BuildPool(spec, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  config.shrinkage = 0.3;  // stabilize the comparison
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  const std::vector<double> z = {0.0, 0.0};
  const double delta = est.value().DeltaG(z, 0);
  const double density = std::exp(est.value().LogComponentDensity(z, 0, 1));
  EXPECT_LT(delta, density * 0.35);
}

TEST(FairDensityTest, DeltaGLargeWhenGroupsSeparate) {
  Rng rng(11);
  Matrix features;
  std::vector<int> labels, sensitive;
  PoolSpec spec;
  spec.group_gap = 4.0;
  BuildPool(spec, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  // At the +1-group's center of class 0, the +1 component dominates.
  const std::vector<double> z = {0.0, 2.0};
  const double lp = est.value().LogComponentDensity(z, 0, 1);
  const double ln = est.value().LogComponentDensity(z, 0, -1);
  EXPECT_GT(lp, ln + 2.0);
  EXPECT_GT(est.value().DeltaG(z, 0), 0.0);
}

TEST(FairDensityTest, MissingComponentIsHandled) {
  // No (y=1, s=-1) cell in the pool.
  Matrix features(30, 2);
  std::vector<int> labels, sensitive;
  Rng rng(12);
  for (std::size_t i = 0; i < 30; ++i) {
    features(i, 0) = rng.Gaussian();
    features(i, 1) = rng.Gaussian();
    labels.push_back(i % 2);
    sensitive.push_back(i % 2 == 1 ? 1 : (i % 4 == 0 ? 1 : -1));
  }
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est.value().HasComponent(1, -1));
  EXPECT_EQ(est.value().Weight(1, -1), 0.0);
  const std::vector<double> z = {0.0, 0.0};
  EXPECT_TRUE(std::isinf(est.value().LogComponentDensity(z, 1, -1)));
  EXPECT_TRUE(std::isfinite(est.value().LogMarginalDensity(z)));
}

TEST(FairDensityTest, RejectsBadInputs) {
  CovarianceConfig config;
  EXPECT_FALSE(
      FairDensityEstimator::Fit(Matrix(0, 2), {}, {}, config).ok());
  Matrix features(2, 2);
  EXPECT_FALSE(
      FairDensityEstimator::Fit(features, {0}, {1, -1}, config).ok());
}

// A (label, sensitive) pair outside the domain maps to no cell: accessors
// report an empty cell (no aliasing onto s = -1, no read past the cell
// vectors) and every fold or fit rejects it, so the weights keep summing
// to 1.
TEST(FairDensityTest, OutOfDomainPairsAreRejected) {
  Rng rng(15);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  const CovarianceConfig config;
  Result<FairDensityEstimator> fit =
      FairDensityEstimator::Fit(features, labels, sensitive, config);
  ASSERT_TRUE(fit.ok());
  FairDensityEstimator& est = fit.value();
  const std::vector<double> z = {0.0, 0.0};
  for (const auto& [y, s] : std::vector<std::pair<int, int>>{
           {0, 7}, {0, 0}, {2, 1}, {-1, -1}}) {
    EXPECT_EQ(est.ComponentIndex(y, s), -1) << y << "," << s;
    EXPECT_EQ(est.Weight(y, s), 0.0) << y << "," << s;
    EXPECT_FALSE(est.HasComponent(y, s)) << y << "," << s;
    EXPECT_EQ(est.LogComponentDensity(z, y, s),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(est.UpdateOne(z.data(), y, s, config).code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(est.DeltaG(z, 2), 0.0);

  // A batch with one bad row is rejected whole: nothing is absorbed.
  Matrix batch(2, 2, 0.5);
  EXPECT_EQ(est.Update(batch, {0, 1}, {1, 0}, config).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(est.total_count(), features.rows());
  double weight_sum = 0.0;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) weight_sum += est.Weight(y, s);
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
  labels[0] = 2;
  EXPECT_EQ(FairDensityEstimator::Fit(features, labels, sensitive, config)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

// ------------------------------------- per-class (single-group) mixture

// The DDU baseline's per-class density: the same mixture on a one-group
// domain with an all-zero sensitive vector.
const DensityDomain kPerClass{2, {0}};

Result<FairDensityEstimator> FitPerClass(const Matrix& features,
                                         const std::vector<int>& labels,
                                         const CovarianceConfig& config) {
  return FairDensityEstimator::Fit(features, labels,
                                   std::vector<int>(labels.size(), 0),
                                   config, kPerClass);
}

TEST(ClassDensityTest, MarginalAndClassDensities) {
  Rng rng(13);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FitPerClass(features, labels, config);
  ASSERT_TRUE(est.ok());
  // Near class-1's center, class 1's density dominates.
  const std::vector<double> z = {4.0, 0.0};
  EXPECT_GT(est.value().LogComponentDensity(z, 1, 0),
            est.value().LogComponentDensity(z, 0, 0) + 2.0);
  EXPECT_TRUE(std::isfinite(est.value().LogMarginalDensity(z)));
  // One group has no cross-group gap.
  EXPECT_EQ(est.value().DeltaG(z, 1), 0.0);
}

TEST(ClassDensityTest, OodDetection) {
  Rng rng(14);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildPool({}, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est =
      FitPerClass(features, labels, config);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est.value().LogMarginalDensity({2.0, 0.0}),
            est.value().LogMarginalDensity({50.0, 50.0}) + 100.0);
}

TEST(ClassDensityTest, RejectsEmpty) {
  CovarianceConfig config;
  EXPECT_FALSE(FitPerClass(Matrix(0, 2), {}, config).ok());
}


// ---------------------------------------------------- incremental refits

// Builds a mildly anisotropic random batch.
Matrix RandomBatch(std::size_t n, std::size_t d, Rng* rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      m(i, j) = rng->Gaussian() * (1.0 + 0.2 * static_cast<double>(j));
    }
  }
  return m;
}

Matrix RowRange(const Matrix& m, std::size_t r0, std::size_t r1) {
  Matrix out(r1 - r0, m.cols());
  for (std::size_t i = r0; i < r1; ++i) {
    std::copy(m.row_data(i), m.row_data(i) + m.cols(), out.row_data(i - r0));
  }
  return out;
}

TEST(GaussianIncrementalTest, UpdateMatchesBatchFit) {
  Rng rng(101);
  const std::size_t d = 6;
  const Matrix all = RandomBatch(400, d, &rng);
  CovarianceConfig config;

  Result<Gaussian> inc = Gaussian::Fit(RowRange(all, 0, 100), config);
  ASSERT_TRUE(inc.ok());
  // Fold the remaining rows in uneven chunks.
  const std::size_t cuts[] = {100, 130, 131, 250, 400};
  for (std::size_t c = 0; c + 1 < 5; ++c) {
    ASSERT_TRUE(inc.value()
                    .Update(RowRange(all, cuts[c], cuts[c + 1]), config)
                    .ok());
  }
  const Result<Gaussian> batch = Gaussian::Fit(all, config);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(inc.value().count(), 400u);
  // Means come from identical row-ordered sums: bitwise equal.
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(inc.value().mean()[j], batch.value().mean()[j]) << "dim " << j;
  }
  // Covariances differ only in summation association (raw-moment vs
  // two-pass centered): log-dets and densities agree to rounding.
  EXPECT_NEAR(inc.value().log_det(), batch.value().log_det(),
              1e-6 * (1.0 + std::fabs(batch.value().log_det())));
  std::vector<double> probe(d);
  for (std::size_t j = 0; j < d; ++j) probe[j] = 0.3 * static_cast<double>(j);
  EXPECT_NEAR(inc.value().LogPdf(probe), batch.value().LogPdf(probe),
              1e-6 * (1.0 + std::fabs(batch.value().LogPdf(probe))));
}

TEST(GaussianIncrementalTest, UpdateFromSingleSampleLeavesFallback) {
  Rng rng(102);
  CovarianceConfig config;
  Matrix one = RandomBatch(1, 4, &rng);
  Result<Gaussian> g = Gaussian::Fit(one, config, 2.0);
  ASSERT_TRUE(g.ok());
  // Growing a single-sample fit re-derives a real covariance from moments.
  ASSERT_TRUE(g.value().Update(RandomBatch(60, 4, &rng), config).ok());
  EXPECT_EQ(g.value().count(), 61u);
  const Result<Gaussian> fresh = Gaussian::Fit(RandomBatch(61, 4, &rng), config);
  ASSERT_TRUE(fresh.ok());  // sanity: same machinery still fits
}

TEST(GaussianIncrementalTest, UpdateRejectsBadInputs) {
  Gaussian unfitted;
  CovarianceConfig config;
  EXPECT_FALSE(unfitted.Update(Matrix(3, 2), config).ok());
  Rng rng(103);
  Result<Gaussian> g = Gaussian::Fit(RandomBatch(10, 3, &rng), config);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g.value().Update(Matrix(2, 4), config).ok());  // wrong dim
  EXPECT_TRUE(g.value().Update(Matrix(0, 3), config).ok());   // no-op
  EXPECT_EQ(g.value().count(), 10u);
}

TEST(FairDensityIncrementalTest, InterleavedUpdatesMatchBatchFit) {
  Rng rng(104);
  const std::size_t d = 4;
  const std::size_t n = 240;
  Matrix z(n, d);
  std::vector<int> labels(n), sensitive(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    sensitive[i] = i % 3 == 0 ? -1 : 1;
    for (std::size_t j = 0; j < d; ++j) {
      z(i, j) = rng.Gaussian() + (labels[i] == 1 ? 1.5 : 0.0) +
                (sensitive[i] == 1 ? 0.5 : 0.0);
    }
  }
  CovarianceConfig config;

  auto slice = [&](std::size_t r0, std::size_t r1, Matrix* zs,
                   std::vector<int>* ys, std::vector<int>* ss) {
    *zs = RowRange(z, r0, r1);
    ys->assign(labels.begin() + static_cast<std::ptrdiff_t>(r0),
               labels.begin() + static_cast<std::ptrdiff_t>(r1));
    ss->assign(sensitive.begin() + static_cast<std::ptrdiff_t>(r0),
               sensitive.begin() + static_cast<std::ptrdiff_t>(r1));
  };

  Matrix zs;
  std::vector<int> ys, ss;
  slice(0, 80, &zs, &ys, &ss);
  Result<FairDensityEstimator> inc =
      FairDensityEstimator::Fit(zs, ys, ss, config);
  ASSERT_TRUE(inc.ok());
  const std::size_t cuts[] = {80, 81, 140, 200, 240};
  for (std::size_t c = 0; c + 1 < 5; ++c) {
    slice(cuts[c], cuts[c + 1], &zs, &ys, &ss);
    ASSERT_TRUE(inc.value().Update(zs, ys, ss, config).ok());
  }
  const Result<FairDensityEstimator> batch =
      FairDensityEstimator::Fit(z, labels, sensitive, config);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(inc.value().total_count(), n);
  // Weights count the same rows: exactly equal.
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      EXPECT_EQ(inc.value().Weight(y, s), batch.value().Weight(y, s));
      EXPECT_EQ(inc.value().HasComponent(y, s),
                batch.value().HasComponent(y, s));
    }
  }
  // Densities agree to rounding everywhere that matters.
  Rng probe_rng(105);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> probe(d);
    for (double& v : probe) v = probe_rng.Gaussian() * 2.0;
    const double a = inc.value().LogMarginalDensity(probe);
    const double b = batch.value().LogMarginalDensity(probe);
    EXPECT_NEAR(a, b, 1e-6 * (1.0 + std::fabs(b))) << "probe " << t;
  }
}

TEST(FairDensityIncrementalTest, UpdateCreatesMissingComponent) {
  Rng rng(106);
  const std::size_t d = 3;
  Matrix z(40, d);
  std::vector<int> labels(40, 0), sensitive(40, 1);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.Gaussian();
  CovarianceConfig config;
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(z, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est.value().HasComponent(1, -1));

  Matrix fresh(12, d);
  std::vector<int> fy(12, 1), fs(12, -1);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    fresh.data()[i] = rng.Gaussian() + 3.0;
  }
  ASSERT_TRUE(est.value().Update(fresh, fy, fs, config).ok());
  EXPECT_TRUE(est.value().HasComponent(1, -1));
  EXPECT_NEAR(est.value().Weight(1, -1), 12.0 / 52.0, 1e-12);
}

TEST(ClassDensityIncrementalTest, UpdatesMatchBatchFit) {
  Rng rng(107);
  const std::size_t d = 3;
  const std::size_t n = 160;
  Matrix z(n, d);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < d; ++j) {
      z(i, j) = rng.Gaussian() + (labels[i] == 1 ? 2.0 : 0.0);
    }
  }
  CovarianceConfig config;
  Matrix head = RowRange(z, 0, 60);
  std::vector<int> head_y(labels.begin(), labels.begin() + 60);
  Result<FairDensityEstimator> inc = FitPerClass(head, head_y, config);
  ASSERT_TRUE(inc.ok());
  Matrix tail = RowRange(z, 60, n);
  std::vector<int> tail_y(labels.begin() + 60, labels.end());
  ASSERT_TRUE(inc.value()
                  .Update(tail, tail_y, std::vector<int>(tail_y.size(), 0),
                          config)
                  .ok());
  const Result<FairDensityEstimator> batch = FitPerClass(z, labels, config);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(inc.value().total_count(), n);
  std::vector<double> probe(d, 0.7);
  EXPECT_NEAR(inc.value().LogMarginalDensity(probe),
              batch.value().LogMarginalDensity(probe), 1e-6);
}

// ------------------------------- sliding-window forgetting (PR 8)

CovarianceConfig Forgetting() {
  CovarianceConfig config;
  config.forgetting = true;
  return config;
}

std::uint64_t Bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Restores the dispatch tier (and, via Disable, the telemetry default)
// the surrounding tests run under.
class ScopedSimdLevelGuard {
 public:
  ScopedSimdLevelGuard() : saved_(ActiveSimdLevel()) {}
  ~ScopedSimdLevelGuard() { (void)SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

// Sliding a window one row at a time (evict the oldest via a rank-1
// downdate, fold the newest) must agree with a batch Fit on the final
// window contents to rounding — and the incremental path itself must be
// bitwise identical across every supported SIMD dispatch tier (the
// downdate guard solve is the only dispatched kernel on the path).
TEST(GaussianForgettingTest, WindowedSlideMatchesBatchFitAcrossTiers) {
  ScopedSimdLevelGuard guard;
  Rng rng(201);
  const std::size_t n = 300, window = 120, d = 6;
  const Matrix all = RandomBatch(n, d, &rng);
  const CovarianceConfig config = Forgetting();

  const Result<Gaussian> batch =
      Gaussian::Fit(RowRange(all, n - window, n), config);
  ASSERT_TRUE(batch.ok());
  std::vector<double> probe(d);
  for (std::size_t j = 0; j < d; ++j) probe[j] = 0.4 * static_cast<double>(j);

  std::vector<std::uint64_t> signature;  // tier 0 (generic) reference
  for (int l = 0; l < 3; ++l) {
    const SimdLevel level = static_cast<SimdLevel>(l);
    if (!SetSimdLevel(level).ok()) continue;

    Result<Gaussian> inc = Gaussian::Fit(RowRange(all, 0, window), config);
    ASSERT_TRUE(inc.ok());
    for (std::size_t t = window; t < n; ++t) {
      ASSERT_TRUE(
          inc.value().DowndateOne(all.row_data(t - window), config).ok());
      ASSERT_TRUE(inc.value().UpdateOne(all.row_data(t), config).ok());
    }

    EXPECT_EQ(inc.value().count(), window);
    EXPECT_DOUBLE_EQ(inc.value().weight(), static_cast<double>(window));
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(inc.value().mean()[j], batch.value().mean()[j], 1e-9)
          << "tier " << l << " dim " << j;
    }
    EXPECT_NEAR(inc.value().log_det(), batch.value().log_det(),
                1e-6 * (1.0 + std::fabs(batch.value().log_det())));
    EXPECT_NEAR(inc.value().LogPdf(probe), batch.value().LogPdf(probe),
                1e-6 * (1.0 + std::fabs(batch.value().LogPdf(probe))));

    std::vector<std::uint64_t> tier_signature;
    tier_signature.push_back(Bits(inc.value().LogPdf(probe)));
    tier_signature.push_back(Bits(inc.value().log_det()));
    for (std::size_t j = 0; j < d; ++j) {
      tier_signature.push_back(Bits(inc.value().mean()[j]));
    }
    if (signature.empty()) {
      signature = tier_signature;
    } else {
      EXPECT_EQ(signature, tier_signature)
          << "incremental slide diverged at tier " << l;
    }
  }
  ASSERT_FALSE(signature.empty());
}

// Decay rescales the statistics and the effective weight but leaves the
// cached mean/factor/log-det literally untouched: the density is bitwise
// identical until the next Update/Downdate.
TEST(GaussianForgettingTest, DecayLeavesDensityBitwiseUntouched) {
  Rng rng(202);
  const std::size_t d = 5;
  Result<Gaussian> g = Gaussian::Fit(RandomBatch(80, d, &rng), Forgetting());
  ASSERT_TRUE(g.ok());
  std::vector<double> probe(d, 0.3);
  const std::uint64_t pdf_bits = Bits(g.value().LogPdf(probe));
  const std::uint64_t det_bits = Bits(g.value().log_det());
  const std::vector<double> mean = g.value().mean();

  g.value().Decay(0.9);
  EXPECT_EQ(Bits(g.value().LogPdf(probe)), pdf_bits);
  EXPECT_EQ(Bits(g.value().log_det()), det_bits);
  EXPECT_EQ(g.value().mean(), mean);
  EXPECT_EQ(g.value().count(), 80u);
  EXPECT_DOUBLE_EQ(g.value().weight(), 80.0 * 0.9);
  g.value().Decay(0.9);
  EXPECT_DOUBLE_EQ(g.value().weight(), 80.0 * 0.9 * 0.9);
}

// Downdating a component below d + 1 effective samples must trip the
// positive-definiteness guard and fall back to the refactor path (counted
// by density.downdate_fallback_refactors) instead of producing a broken
// factor.
TEST(GaussianForgettingTest, DowndateBelowDimPlusOneFallsBackToRefactor) {
  Telemetry::Enable()->Reset();
  Rng rng(203);
  const std::size_t d = 4;
  const Matrix rows = RandomBatch(d + 2, d, &rng);
  Result<Gaussian> g = Gaussian::Fit(rows, Forgetting());
  ASSERT_TRUE(g.ok());

  // 6 -> 5 -> 4 effective samples: the second eviction lands below d + 1.
  ASSERT_TRUE(g.value().DowndateOne(rows.row_data(0), Forgetting()).ok());
  ASSERT_TRUE(g.value().DowndateOne(rows.row_data(1), Forgetting()).ok());
  EXPECT_GE(TelemetryCounterValue("density.downdate_fallback_refactors"), 1u);
  EXPECT_GT(TelemetryCounterValue("density.downdates"), 0u);

  // The fallback refactor leaves a usable fit that matches a batch fit on
  // the surviving rows.
  const Result<Gaussian> batch =
      Gaussian::Fit(RowRange(rows, 2, d + 2), Forgetting());
  ASSERT_TRUE(batch.ok());
  std::vector<double> probe(d, 0.5);
  EXPECT_NEAR(g.value().LogPdf(probe), batch.value().LogPdf(probe),
              1e-6 * (1.0 + std::fabs(batch.value().LogPdf(probe))));
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// ---------------------------------------------------------------------------
// The fallback sites of Gaussian::DowndateOne, each driven on purpose and
// counted. Rows are small integers and every Fit takes a power-of-two row
// count, so every moment a Gaussian keeps (count, sums, raw scatter) is
// exact in whatever order it was accumulated. A test can then name the
// moments a downdate leaves and check the factor against a refactor of
// exactly those moments, bitwise.

Matrix IntegerRows(std::size_t n, std::size_t d, Rng* rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      m(i, j) = static_cast<double>(rng->UniformInt(9)) - 4.0;
    }
  }
  return m;
}

// The factor RefreshRidge builds from the exact moments of rows [r0, r1),
// in its element order: cov = (scatter - sum sum^T / w + ridge I) / w.
Matrix RidgeRefactor(const Matrix& rows, std::size_t r0, std::size_t r1,
                     double ridge, std::vector<double>* mean) {
  const std::size_t d = rows.cols();
  const double w = static_cast<double>(r1 - r0);
  std::vector<double> sum(d, 0.0);
  Matrix scatter(d, d);
  for (std::size_t i = r0; i < r1; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      sum[a] += rows(i, a);
      for (std::size_t b = 0; b < d; ++b) {
        scatter(a, b) += rows(i, a) * rows(i, b);
      }
    }
  }
  mean->resize(d);
  for (std::size_t j = 0; j < d; ++j) (*mean)[j] = sum[j] / w;
  Matrix cov(d, d);
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      double m = scatter(a, b) - sum[a] * sum[b] / w;
      if (a == b) m += ridge;
      cov(a, b) = m / w;
      cov(b, a) = cov(a, b);
    }
  }
  Matrix factor;
  EXPECT_TRUE(CholeskyInto(cov, &factor).ok());
  return factor;
}

// Probes whose Mahalanobis squares, with the log-determinant, read every
// entry of a factor.
std::vector<std::vector<double>> FactorProbes(std::size_t d) {
  std::vector<std::vector<double>> probes;
  for (std::size_t k = 0; k <= d; ++k) {
    std::vector<double> z(d);
    for (std::size_t j = 0; j < d; ++j) {
      z[j] = (j == k ? 2.5 : 0.0) + 0.25 * static_cast<double>(j + 1);
    }
    probes.push_back(z);
  }
  return probes;
}

// `g` holds `factor` and `mean`, bitwise: Gaussian::MahalanobisSquared
// solves L y = z - mean and sums y^2 in ascending order.
void ExpectFactorBits(const Gaussian& g, const Matrix& factor,
                      const std::vector<double>& mean) {
  const std::size_t d = mean.size();
  ASSERT_EQ(d, g.dim());
  EXPECT_EQ(Bits(LogDetFromCholesky(factor)), Bits(g.log_det()));
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_EQ(Bits(mean[j]), Bits(g.mean()[j])) << "mean " << j;
  }
  for (const std::vector<double>& z : FactorProbes(d)) {
    std::vector<double> centered(d);
    for (std::size_t j = 0; j < d; ++j) centered[j] = z[j] - mean[j];
    double maha = 0.0;
    for (double y : ForwardSolve(factor, centered)) maha += y * y;
    EXPECT_EQ(Bits(maha), Bits(g.MahalanobisSquared(z)));
  }
}

std::uint64_t FallbackRefactors() {
  return TelemetryCounterValue("density.downdate_fallback_refactors");
}

// Site 1, legacy mode: shrinkage cannot be maintained rank-1, so every
// downdate subtracts the row from the moments and refactors. The result
// must be the refactor UpdateOne performs on the same seven rows.
TEST(GaussianDowndateFallbackTest, LegacyModeRefactorsFromMoments) {
  Telemetry::Enable()->Reset();
  Rng rng(211);
  const std::size_t d = 3;
  const Matrix rows = IntegerRows(8, d, &rng);
  const CovarianceConfig legacy;
  Result<Gaussian> downdated = Gaussian::Fit(rows, legacy);
  ASSERT_TRUE(downdated.ok());
  ASSERT_TRUE(downdated.value().DowndateOne(rows.row_data(0), legacy).ok());
  EXPECT_EQ(1u, FallbackRefactors());

  Result<Gaussian> folded = Gaussian::Fit(RowRange(rows, 1, 5), legacy);
  ASSERT_TRUE(folded.ok());
  for (std::size_t i = 5; i < 8; ++i) {
    ASSERT_TRUE(folded.value().UpdateOne(rows.row_data(i), legacy).ok());
  }
  EXPECT_EQ(folded.value().count(), downdated.value().count());
  EXPECT_EQ(Bits(folded.value().log_det()),
            Bits(downdated.value().log_det()));
  EXPECT_EQ(folded.value().mean(), downdated.value().mean());
  for (const std::vector<double>& z : FactorProbes(d)) {
    EXPECT_EQ(Bits(folded.value().MahalanobisSquared(z)),
              Bits(downdated.value().MahalanobisSquared(z)));
  }
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// Site 2, forgetting mode: a downdate that leaves less than d + 1
// effective samples refactors before the guard is even computed.
TEST(GaussianDowndateFallbackTest, WeightBelowDimPlusOneRefactors) {
  Telemetry::Enable()->Reset();
  Rng rng(212);
  const std::size_t d = 4;
  const Matrix rows = IntegerRows(4, d, &rng);
  const CovarianceConfig config = Forgetting();
  Result<Gaussian> g = Gaussian::Fit(rows, config);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g.value().DowndateOne(rows.row_data(0), config).ok());
  EXPECT_EQ(1u, FallbackRefactors());
  EXPECT_DOUBLE_EQ(3.0, g.value().weight());

  std::vector<double> mean;
  const Matrix factor = RidgeRefactor(rows, 1, 4, config.ridge, &mean);
  ExpectFactorBits(g.value(), factor, mean);
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// Site 3, forgetting mode: the guard trips although seven samples remain.
// The evicted row is the only one with a non-zero last coordinate, so
// without it that coordinate's variance is ridge / w alone; with a tiny
// ridge the downdated covariance sits within 1e-8 of singular and the
// rank-1 sweep is refused.
TEST(GaussianDowndateFallbackTest, GuardTripRefactors) {
  Telemetry::Enable()->Reset();
  Rng rng(213);
  const std::size_t d = 4;
  Matrix rows = IntegerRows(8, d, &rng);
  for (std::size_t i = 0; i < 8; ++i) rows(i, d - 1) = i == 0 ? 3.0 : 0.0;
  CovarianceConfig config = Forgetting();
  config.ridge = 1e-12;
  Result<Gaussian> g = Gaussian::Fit(rows, config);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(g.value().DowndateOne(rows.row_data(0), config).ok());
  EXPECT_EQ(1u, FallbackRefactors());
  EXPECT_DOUBLE_EQ(7.0, g.value().weight());  // above d + 1: not site 2

  std::vector<double> mean;
  const Matrix factor = RidgeRefactor(rows, 1, 8, config.ridge, &mean);
  ExpectFactorBits(g.value(), factor, mean);
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// Labeled pool for the mixture-level window tests: labels alternate,
// sensitive splits 1/3 vs 2/3, light class/group shifts.
void BuildLabeledRows(std::size_t n, std::size_t d, Rng* rng, Matrix* z,
                      std::vector<int>* labels, std::vector<int>* sensitive) {
  z->Resize(n, d);
  labels->resize(n);
  sensitive->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*labels)[i] = static_cast<int>(i % 2);
    (*sensitive)[i] = i % 3 == 0 ? -1 : 1;
    for (std::size_t j = 0; j < d; ++j) {
      (*z)(i, j) = rng->Gaussian() + ((*labels)[i] == 1 ? 1.5 : 0.0) +
                   ((*sensitive)[i] == 1 ? 0.5 : 0.0);
    }
  }
}

TEST(FairDensityForgettingTest, WindowedSlideMatchesBatchFit) {
  Rng rng(204);
  const std::size_t n = 240, window = 120, d = 4;
  Matrix z;
  std::vector<int> labels, sensitive;
  BuildLabeledRows(n, d, &rng, &z, &labels, &sensitive);
  const CovarianceConfig config = Forgetting();

  Matrix head = RowRange(z, 0, window);
  std::vector<int> hy(labels.begin(),
                      labels.begin() + static_cast<std::ptrdiff_t>(window));
  std::vector<int> hs(sensitive.begin(),
                      sensitive.begin() + static_cast<std::ptrdiff_t>(window));
  Result<FairDensityEstimator> inc =
      FairDensityEstimator::Fit(head, hy, hs, config);
  ASSERT_TRUE(inc.ok());
  for (std::size_t t = window; t < n; ++t) {
    ASSERT_TRUE(inc.value()
                    .DowndateOne(z.row_data(t - window), labels[t - window],
                                 sensitive[t - window], config)
                    .ok());
    ASSERT_TRUE(
        inc.value().UpdateOne(z.row_data(t), labels[t], sensitive[t], config)
            .ok());
  }

  Matrix tail = RowRange(z, n - window, n);
  std::vector<int> ty(labels.begin() + static_cast<std::ptrdiff_t>(n - window),
                      labels.end());
  std::vector<int> ts(
      sensitive.begin() + static_cast<std::ptrdiff_t>(n - window),
      sensitive.end());
  const Result<FairDensityEstimator> batch =
      FairDensityEstimator::Fit(tail, ty, ts, config);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(inc.value().total_count(), window);
  // Window masses are exact small integers in both paths: the mixture
  // weights agree bitwise.
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) {
      EXPECT_EQ(inc.value().Weight(y, s), batch.value().Weight(y, s));
      EXPECT_EQ(inc.value().HasComponent(y, s),
                batch.value().HasComponent(y, s));
    }
  }
  Rng probe_rng(205);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> probe(d);
    for (double& v : probe) v = probe_rng.Gaussian() * 2.0;
    const double a = inc.value().LogMarginalDensity(probe);
    const double b = batch.value().LogMarginalDensity(probe);
    EXPECT_NEAR(a, b, 1e-6 * (1.0 + std::fabs(b))) << "probe " << t;
  }
}

// Evicting a component's last remaining row drops the component from the
// mixture — exactly what a batch fit on the remaining window produces —
// and a later arrival re-creates it through the fresh-fit path.
TEST(FairDensityForgettingTest, EvictingLastRowDropsComponent) {
  Rng rng(206);
  const std::size_t d = 3;
  Matrix z(41, d);
  std::vector<int> labels(41, 0), sensitive(41, 1);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.Gaussian();
  labels[40] = 1;
  sensitive[40] = -1;  // the only (1, -1) row
  const CovarianceConfig config = Forgetting();
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(z, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(est.value().HasComponent(1, -1));

  ASSERT_TRUE(est.value().DowndateOne(z.row_data(40), 1, -1, config).ok());
  EXPECT_FALSE(est.value().HasComponent(1, -1));
  EXPECT_EQ(est.value().Weight(1, -1), 0.0);
  EXPECT_EQ(est.value().total_count(), 40u);
  const std::vector<double> probe(d, 0.0);
  EXPECT_TRUE(std::isinf(est.value().LogComponentDensity(probe, 1, -1)));

  // The fresh-fit path re-arms: folding a (1, -1) row re-creates it.
  ASSERT_TRUE(est.value().UpdateOne(z.row_data(40), 1, -1, config).ok());
  EXPECT_TRUE(est.value().HasComponent(1, -1));
}

// Evicting a row from a component that never absorbed one is a checked
// abort: the window must only hand back rows it folded.
TEST(FairDensityForgettingDeathTest, EvictingNeverFoldedRowDies) {
  Rng rng(207);
  const std::size_t d = 3;
  Matrix z(40, d);
  std::vector<int> labels(40, 0), sensitive(40, 1);
  for (std::size_t i = 0; i < z.size(); ++i) z.data()[i] = rng.Gaussian();
  const CovarianceConfig config = Forgetting();
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(z, labels, sensitive, config);
  ASSERT_TRUE(est.ok());
  ASSERT_FALSE(est.value().HasComponent(1, -1));
  const std::vector<double> row(d, 0.0);
  EXPECT_DEATH(
      (void)est.value().DowndateOne(row.data(), 1, -1, config),
      "CHECK failed");
}

// Mixture weights are ratios of uniformly decayed masses: Decay leaves
// them (and every component density) bitwise untouched; only subsequent
// arrivals tip the balance.
TEST(FairDensityForgettingTest, DecayPreservesMixtureWeightsBitwise) {
  Rng rng(208);
  const std::size_t n = 120, d = 4;
  Matrix z;
  std::vector<int> labels, sensitive;
  BuildLabeledRows(n, d, &rng, &z, &labels, &sensitive);
  const CovarianceConfig config = Forgetting();
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(z, labels, sensitive, config);
  ASSERT_TRUE(est.ok());

  const std::vector<double> probe(d, 0.2);
  std::vector<std::uint64_t> before;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) before.push_back(Bits(est.value().Weight(y, s)));
  }
  before.push_back(Bits(est.value().LogMarginalDensity(probe)));

  est.value().Decay(0.8);
  std::vector<std::uint64_t> after;
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) after.push_back(Bits(est.value().Weight(y, s)));
  }
  after.push_back(Bits(est.value().LogMarginalDensity(probe)));
  EXPECT_EQ(before, after);

  // A post-decay arrival carries relatively more mass than an undecayed
  // one would: its bucket's weight moves past the undecayed ratio.
  const double w0 = est.value().Weight(labels[0], sensitive[0]);
  ASSERT_TRUE(
      est.value().UpdateOne(z.row_data(0), labels[0], sensitive[0], config)
          .ok());
  EXPECT_GT(est.value().Weight(labels[0], sensitive[0]), w0);
}

// ------------------------------------------------------- DensityWindow

// Rows [0, n) of `z` as a labeled pool.
Dataset PoolOf(const Matrix& z, const std::vector<int>& labels,
               const std::vector<int>& sensitive, std::size_t n) {
  Dataset pool(z.cols());
  for (std::size_t i = 0; i < n; ++i) {
    Example e;
    e.x = z.Row(i);
    e.label = labels[i];
    e.sensitive = sensitive[i];
    FACTION_CHECK(pool.Append(e).ok());
  }
  return pool;
}

const DensityWindow::Embed kIdentity = [](const Matrix& x) { return x; };

// Folding rows past the window one at a time (evict the oldest, fold the
// newest) tracks the windowed Refit on the final pool: exactly the last W
// rows, the same mixture weights, log-densities within 1e-6 relative.
TEST(DensityWindowTest, FoldPastWindowMatchesRefit) {
  Rng rng(209);
  const std::size_t n = 200, window = 80, d = 4;
  Matrix z;
  std::vector<int> labels, sensitive;
  BuildLabeledRows(n, d, &rng, &z, &labels, &sensitive);
  const CovarianceConfig config;
  DensityWindow inc(window, 1.0, config);
  ASSERT_TRUE(inc.Refit(PoolOf(z, labels, sensitive, window), kIdentity)
                  .ok());
  const Dataset pool = PoolOf(z, labels, sensitive, n);
  ASSERT_TRUE(inc.FoldRows(pool, window, kIdentity).ok());
  DensityWindow oracle(window, 1.0, config);
  ASSERT_TRUE(oracle.Refit(pool, kIdentity).ok());
  EXPECT_TRUE(inc.covariance().forgetting);

  const FairDensityEstimator& a = *inc.estimator();
  const FairDensityEstimator& b = *oracle.estimator();
  EXPECT_EQ(a.total_count(), window);
  EXPECT_EQ(b.total_count(), window);
  for (int y = 0; y < 2; ++y) {
    for (int s : {-1, 1}) EXPECT_EQ(a.Weight(y, s), b.Weight(y, s));
  }
  Rng probe_rng(210);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> probe(d);
    for (double& v : probe) v = probe_rng.Gaussian() * 2.0;
    const double la = a.LogMarginalDensity(probe);
    const double lb = b.LogMarginalDensity(probe);
    EXPECT_NEAR(la, lb, 1e-6 * (1.0 + std::fabs(lb))) << "probe " << t;
  }
}

// Without a window or decay the maintainer is the grow-only estimator:
// FoldRows is one batched Update, bitwise equal to calling it directly.
TEST(DensityWindowTest, GrowOnlyFoldRowsIsOneBatchedUpdate) {
  Rng rng(211);
  const std::size_t n = 150, head = 90, d = 3;
  Matrix z;
  std::vector<int> labels, sensitive;
  BuildLabeledRows(n, d, &rng, &z, &labels, &sensitive);
  const CovarianceConfig config;
  DensityWindow grow(0, 1.0, config);
  EXPECT_FALSE(grow.covariance().forgetting);
  ASSERT_TRUE(
      grow.Refit(PoolOf(z, labels, sensitive, head), kIdentity).ok());
  ASSERT_TRUE(grow.FoldRows(PoolOf(z, labels, sensitive, n), head, kIdentity)
                  .ok());

  Result<FairDensityEstimator> direct = FairDensityEstimator::Fit(
      RowRange(z, 0, head),
      std::vector<int>(labels.begin(), labels.begin() + head),
      std::vector<int>(sensitive.begin(), sensitive.begin() + head), config);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.value()
                  .Update(RowRange(z, head, n),
                          std::vector<int>(labels.begin() + head, labels.end()),
                          std::vector<int>(sensitive.begin() + head,
                                           sensitive.end()),
                          config)
                  .ok());
  const std::vector<double> probe(d, 0.3);
  EXPECT_EQ(Bits(grow.estimator()->LogMarginalDensity(probe)),
            Bits(direct.value().LogMarginalDensity(probe)));
  EXPECT_EQ(grow.estimator()->total_count(), n);
}

}  // namespace
}  // namespace faction
