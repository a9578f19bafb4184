// Tests for the paper's extension features: the generalized multi-class /
// multi-valued-sensitive density estimator (Sec. IV-B's future work), the
// individual-fairness penalty (Sec. IV-H), the single-sample streaming
// machinery (Sec. IV-D), and model serialization.
#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "density/fair_density.h"
#include "fairness/individual.h"
#include "gtest/gtest.h"
#include "stream/incremental.h"
#include "tensor/ops.h"

namespace faction {
namespace {

// ------------------------- FairDensityEstimator over many classes and groups

// Pool with 3 classes and 3 sensitive values on a 2-d grid.
void BuildMultiPool(std::size_t per_cell, Rng* rng, Matrix* features,
                    std::vector<int>* labels, std::vector<int>* sensitive) {
  const std::vector<int> groups = {0, 1, 2};
  features->Resize(per_cell * 9, 2);
  labels->clear();
  sensitive->clear();
  std::size_t row = 0;
  for (int y = 0; y < 3; ++y) {
    for (int s : groups) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        (*features)(row, 0) = rng->Gaussian(y * 5.0, 0.5);
        (*features)(row, 1) = rng->Gaussian(s * 3.0, 0.5);
        labels->push_back(y);
        sensitive->push_back(s);
        ++row;
      }
    }
  }
}

TEST(GroupedDensityTest, FitsAllComponents) {
  Rng rng(1);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildMultiPool(40, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {3, {0, 1, 2}});
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est.value().domain().num_classes, 3);
  double weight_sum = 0.0;
  for (int y = 0; y < 3; ++y) {
    for (int s : {0, 1, 2}) {
      EXPECT_TRUE(est.value().HasComponent(y, s));
      weight_sum += est.value().Weight(y, s);
    }
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
}

TEST(GroupedDensityTest, ReducesToBinaryCase) {
  // With C = 2, S = {-1, +1}, the generalized Delta g equals the binary
  // |g(z|c,+1) - g(z|c,-1)|.
  Rng rng(2);
  Matrix features(200, 2);
  std::vector<int> labels, sensitive;
  for (std::size_t i = 0; i < 200; ++i) {
    const int y = i % 2;
    const int s = (i / 2) % 2 == 0 ? 1 : -1;
    features(i, 0) = rng.Gaussian(y * 4.0, 0.5);
    features(i, 1) = rng.Gaussian(s * 1.5, 0.5);
    labels.push_back(y);
    sensitive.push_back(s);
  }
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {2, {-1, 1}});
  ASSERT_TRUE(est.ok());
  const std::vector<double> z = {0.0, 1.0};
  const double direct =
      std::fabs(std::exp(est.value().LogComponentDensity(z, 0, 1)) -
                std::exp(est.value().LogComponentDensity(z, 0, -1)));
  EXPECT_NEAR(est.value().DeltaG(z, 0), direct, 1e-12);
}

TEST(GroupedDensityTest, DeltaGIsMaxPairwiseGap) {
  Rng rng(3);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildMultiPool(60, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {3, {0, 1, 2}});
  ASSERT_TRUE(est.ok());
  // At group 0's center of class 1, group 0's density dwarfs group 2's.
  const std::vector<double> z = {5.0, 0.0};
  std::vector<double> densities;
  for (int s : {0, 1, 2}) {
    densities.push_back(
        std::exp(est.value().LogComponentDensity(z, 1, s)));
  }
  const double expect = *std::max_element(densities.begin(), densities.end()) -
                        *std::min_element(densities.begin(), densities.end());
  EXPECT_NEAR(est.value().DeltaG(z, 1), expect, 1e-12);
  EXPECT_GT(est.value().DeltaG(z, 1), 0.0);
}

TEST(GroupedDensityTest, LogDeltaGMatchesRawDomain) {
  Rng rng(4);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildMultiPool(60, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {3, {0, 1, 2}});
  ASSERT_TRUE(est.ok());
  const std::vector<double> z = {5.0, 1.2};
  std::vector<double> densities;
  for (int s : {0, 1, 2}) {
    densities.push_back(std::exp(est.value().LogComponentDensity(z, 1, s)));
  }
  const double raw = *std::max_element(densities.begin(), densities.end()) -
                     *std::min_element(densities.begin(), densities.end());
  std::vector<double> scratch(2), row(est.value().num_components());
  est.value().ComponentLogPdfRow(z.data(), scratch.data(), row.data());
  ASSERT_GT(raw, 0.0);
  EXPECT_NEAR(std::log(raw), est.value().LogDeltaG(row.data(), 1), 1e-6);
}

TEST(GroupedDensityTest, MarginalMixesAllComponents) {
  Rng rng(5);
  Matrix features;
  std::vector<int> labels, sensitive;
  BuildMultiPool(40, &rng, &features, &labels, &sensitive);
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {3, {0, 1, 2}});
  ASSERT_TRUE(est.ok());
  const std::vector<double> z = {5.0, 3.0};
  double mixture = 0.0;
  for (int y = 0; y < 3; ++y) {
    for (int s : {0, 1, 2}) {
      mixture += est.value().Weight(y, s) *
                 std::exp(est.value().LogComponentDensity(z, y, s));
    }
  }
  EXPECT_NEAR(std::exp(est.value().LogMarginalDensity(z)), mixture, 1e-9);
}

TEST(GroupedDensityTest, ValidationErrors) {
  CovarianceConfig config;
  Matrix features(4, 2);
  // Label out of range.
  EXPECT_FALSE(FairDensityEstimator::Fit(features, {0, 1, 2, 0},
                                         {0, 0, 1, 1}, config, {2, {0, 1}})
                   .ok());
  // Sensitive value not declared.
  EXPECT_FALSE(FairDensityEstimator::Fit(features, {0, 1, 0, 1},
                                         {0, 0, 7, 1}, config, {2, {0, 1}})
                   .ok());
  // Duplicate sensitive values.
  EXPECT_FALSE(FairDensityEstimator::Fit(features, {0, 1, 0, 1},
                                         {0, 0, 1, 1}, config, {2, {0, 0}})
                   .ok());
  // Too few classes.
  EXPECT_FALSE(FairDensityEstimator::Fit(features, {0, 0, 0, 0},
                                         {0, 0, 1, 1}, config, {1, {0, 1}})
                   .ok());
  // Empty input.
  EXPECT_FALSE(FairDensityEstimator::Fit(Matrix(0, 2), {}, {}, config,
                                         {2, {0, 1}})
                   .ok());
}

TEST(GroupedDensityTest, MissingComponentHandled) {
  Rng rng(6);
  Matrix features(60, 2);
  std::vector<int> labels, sensitive;
  for (std::size_t i = 0; i < 60; ++i) {
    features(i, 0) = rng.Gaussian();
    features(i, 1) = rng.Gaussian();
    labels.push_back(static_cast<int>(i % 2));
    sensitive.push_back(0);  // group 1 never appears
  }
  CovarianceConfig config;
  const Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      features, labels, sensitive, config, {2, {0, 1}});
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est.value().HasComponent(0, 1));
  const std::vector<double> z = {0.0, 0.0};
  // Gap against the missing group is the present group's density.
  EXPECT_NEAR(est.value().DeltaG(z, 0),
              std::exp(est.value().LogComponentDensity(z, 0, 0)), 1e-12);
}

// ------------------------------------------------- Individual fairness

TEST(IndividualFairnessTest, ZeroForConsistentTreatment) {
  // Identical inputs with identical logits: no penalty.
  Matrix inputs(4, 2, 1.0);
  Matrix logits(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    logits(i, 0) = 0.3;
    logits(i, 1) = 0.9;
  }
  IndividualFairnessConfig config;
  const Result<double> pen =
      IndividualFairnessPenalty(inputs, logits, config);
  ASSERT_TRUE(pen.ok());
  EXPECT_NEAR(pen.value(), 0.0, 1e-12);
}

TEST(IndividualFairnessTest, PenalizesInconsistentSimilarPairs) {
  // Two identical inputs with opposite confident predictions.
  Matrix inputs(2, 2, 0.0);
  Matrix logits(2, 2);
  logits(0, 0) = -4.0;
  logits(0, 1) = 4.0;
  logits(1, 0) = 4.0;
  logits(1, 1) = -4.0;
  IndividualFairnessConfig config;
  config.weight = 1.0;
  const Result<double> pen =
      IndividualFairnessPenalty(inputs, logits, config);
  ASSERT_TRUE(pen.ok());
  EXPECT_GT(pen.value(), 0.5);
}

TEST(IndividualFairnessTest, DistantPairsIgnored) {
  Matrix inputs(2, 2);
  inputs(1, 0) = 100.0;  // far apart
  Matrix logits(2, 2);
  logits(0, 1) = 4.0;
  logits(1, 0) = 4.0;
  IndividualFairnessConfig config;
  const Result<double> pen =
      IndividualFairnessPenalty(inputs, logits, config);
  ASSERT_TRUE(pen.ok());
  EXPECT_EQ(pen.value(), 0.0);
}

TEST(IndividualFairnessTest, GradientCheck) {
  Rng rng(7);
  Matrix inputs(5, 3);
  Matrix logits(5, 2);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = rng.Gaussian(0.0, 0.5);
  }
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Gaussian();
  }
  IndividualFairnessConfig config;
  config.weight = 0.7;
  Matrix dlogits(5, 2, 0.0);
  const Result<double> pen =
      AddIndividualFairnessPenalty(inputs, logits, config, &dlogits);
  ASSERT_TRUE(pen.ok());
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix up = logits, down = logits;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    const double pu = IndividualFairnessPenalty(inputs, up, config).value();
    const double pd =
        IndividualFairnessPenalty(inputs, down, config).value();
    EXPECT_NEAR(dlogits.data()[i], (pu - pd) / (2.0 * eps), 1e-6);
  }
}

TEST(IndividualFairnessTest, ValidationErrors) {
  IndividualFairnessConfig config;
  Matrix dlogits(2, 2, 0.0);
  // Non-binary logits.
  EXPECT_FALSE(AddIndividualFairnessPenalty(Matrix(2, 2), Matrix(2, 3),
                                            config, &dlogits)
                   .ok());
  // Row mismatch.
  EXPECT_FALSE(AddIndividualFairnessPenalty(Matrix(3, 2), Matrix(2, 2),
                                            config, &dlogits)
                   .ok());
  // Bad bandwidth.
  config.bandwidth = 0.0;
  EXPECT_FALSE(AddIndividualFairnessPenalty(Matrix(2, 2), Matrix(2, 2),
                                            config, &dlogits)
                   .ok());
}

// ------------------------------------------------------- Incremental

TEST(IncrementalNormalizerTest, TracksRange) {
  IncrementalNormalizer norm;
  EXPECT_EQ(norm.Normalize(5.0), 0.5);  // no observations yet
  norm.Observe(2.0);
  norm.Observe(6.0);
  norm.Observe(4.0);
  EXPECT_EQ(norm.count(), 3u);
  EXPECT_EQ(norm.min(), 2.0);
  EXPECT_EQ(norm.max(), 6.0);
  EXPECT_NEAR(norm.Normalize(4.0), 0.5, 1e-12);
  EXPECT_NEAR(norm.Normalize(2.0), 0.0, 1e-12);
  EXPECT_NEAR(norm.Normalize(6.0), 1.0, 1e-12);
  // Clamping outside the seen range.
  EXPECT_EQ(norm.Normalize(100.0), 1.0);
  EXPECT_EQ(norm.Normalize(-100.0), 0.0);
}

TEST(IncrementalNormalizerTest, DegenerateRange) {
  IncrementalNormalizer norm;
  norm.Observe(3.0);
  norm.Observe(3.0);
  EXPECT_EQ(norm.Normalize(3.0), 0.5);
}

TEST(IncrementalNormalizerTest, ResetForgets) {
  IncrementalNormalizer norm;
  norm.Observe(1.0);
  norm.Observe(9.0);
  norm.Reset();
  EXPECT_EQ(norm.count(), 0u);
  EXPECT_EQ(norm.Normalize(5.0), 0.5);
}

}  // namespace
}  // namespace faction
