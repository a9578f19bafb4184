// Property-style parameterized sweeps over randomized inputs: invariants
// that must hold for any size/seed combination.
#include <cmath>
#include <string>

#include "common/rng.h"
#include "density/gaussian.h"
#include "fairness/metrics.h"
#include "fairness/relaxed.h"
#include "gtest/gtest.h"
#include "stream/selection.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace faction {
namespace {

struct SizeSeed {
  std::size_t size;
  std::uint64_t seed;
};

// Test-name generator: "n<size>". Built by appending, not as
// `"n" + std::to_string(...)`, which GCC 12 at -O3 flags with a false
// -Wrestrict (GCC bug 105329).
std::string SizeName(const ::testing::TestParamInfo<SizeSeed>& info) {
  std::string name = "n";
  name += std::to_string(info.param.size);
  return name;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  return m;
}

// ------------------------------------------------ tensor algebra sweeps

class TensorProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(TensorProperty, TransposeDistributesOverProduct) {
  Rng rng(GetParam().seed);
  const std::size_t n = GetParam().size;
  const Matrix a = RandomMatrix(n, n + 1, &rng);
  const Matrix b = RandomMatrix(n + 1, n + 2, &rng);
  // (AB)^T == B^T A^T
  const Matrix left = Transpose(MatMul(a, b));
  const Matrix right = MatMul(Transpose(b), Transpose(a));
  EXPECT_LT(MaxAbsDiff(left, right), 1e-9);
}

TEST_P(TensorProperty, SoftmaxRowsAreDistributions) {
  Rng rng(GetParam().seed + 1);
  const Matrix logits = RandomMatrix(GetParam().size, 4, &rng);
  const Matrix p = SoftmaxRows(Scale(logits, 10.0));
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GE(p(i, j), 0.0);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(TensorProperty, LogSumExpBounds) {
  Rng rng(GetParam().seed + 2);
  std::vector<double> xs(GetParam().size + 1);
  double mx = -1e300;
  for (double& x : xs) {
    x = rng.Gaussian(0.0, 50.0);
    mx = std::max(mx, x);
  }
  const double lse = LogSumExp(xs);
  EXPECT_GE(lse, mx - 1e-9);
  EXPECT_LE(lse, mx + std::log(static_cast<double>(xs.size())) + 1e-9);
}

TEST_P(TensorProperty, CholeskyRoundTrip) {
  Rng rng(GetParam().seed + 3);
  const std::size_t n = GetParam().size;
  const Matrix b = RandomMatrix(n, n, &rng);
  Matrix a = MatMulBt(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  const Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_LT(MaxAbsDiff(MatMulBt(l.value(), l.value()), a), 1e-8);
  // Solving against a random rhs round-trips.
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian();
  std::vector<double> rhs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) rhs[i] += a(i, j) * x[j];
  }
  const std::vector<double> solved = CholeskySolve(l.value(), rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(solved[i], x[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TensorProperty,
    ::testing::Values(SizeSeed{2, 11}, SizeSeed{3, 22}, SizeSeed{5, 33},
                      SizeSeed{8, 44}, SizeSeed{13, 55}, SizeSeed{21, 66}),
    SizeName);

// ---------------------------------------------------- selection sweeps

class SelectionProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(SelectionProperty, NormalizeBoundsAndMonotone) {
  Rng rng(GetParam().seed);
  std::vector<double> scores(GetParam().size + 2);
  for (double& s : scores) s = rng.Gaussian(0.0, 100.0);
  const std::vector<double> norm = MinMaxNormalize(scores);
  for (double v : norm) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Order preservation.
  for (std::size_t i = 0; i < scores.size(); ++i) {
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (scores[i] < scores[j]) {
        EXPECT_LE(norm[i], norm[j] + 1e-12);
      }
    }
  }
}

TEST_P(SelectionProperty, BernoulliSelectIsPermutationSubset) {
  Rng rng(GetParam().seed + 1);
  std::vector<double> omega(GetParam().size + 2);
  for (double& w : omega) w = rng.Uniform();
  const std::size_t batch = omega.size() / 2 + 1;
  const std::vector<std::size_t> picked =
      BernoulliSelect(omega, 1.5, batch, &rng);
  EXPECT_EQ(picked.size(), std::min(batch, omega.size()));
  std::vector<bool> seen(omega.size(), false);
  for (std::size_t idx : picked) {
    ASSERT_LT(idx, omega.size());
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST_P(SelectionProperty, TopKMatchesSortPrefix) {
  Rng rng(GetParam().seed + 2);
  std::vector<double> scores(GetParam().size + 2);
  for (double& s : scores) s = rng.Gaussian();
  const std::size_t k = scores.size() / 2;
  const std::vector<std::size_t> top = TopK(scores, k);
  // Verify the selected scores dominate the unselected ones.
  double min_top = 1e300;
  for (std::size_t idx : top) min_top = std::min(min_top, scores[idx]);
  std::vector<bool> chosen(scores.size(), false);
  for (std::size_t idx : top) chosen[idx] = true;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (!chosen[i]) {
      EXPECT_LE(scores[i], min_top + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelectionProperty,
    ::testing::Values(SizeSeed{1, 7}, SizeSeed{4, 17}, SizeSeed{16, 27},
                      SizeSeed{64, 37}, SizeSeed{256, 47}),
    SizeName);

// ------------------------------------------------------ fairness sweeps

class FairnessProperty : public ::testing::TestWithParam<SizeSeed> {};

TEST_P(FairnessProperty, MetricsWithinBounds) {
  Rng rng(GetParam().seed);
  const std::size_t n = GetParam().size + 4;
  std::vector<int> yhat(n), y(n), s(n);
  for (std::size_t i = 0; i < n; ++i) {
    yhat[i] = rng.Bernoulli(0.5) ? 1 : 0;
    y[i] = rng.Bernoulli(0.5) ? 1 : 0;
    s[i] = rng.Bernoulli(0.5) ? 1 : -1;
  }
  const Result<double> ddp = DemographicParityDifference(yhat, s);
  if (ddp.ok()) {
    EXPECT_GE(ddp.value(), 0.0);
    EXPECT_LE(ddp.value(), 1.0);
  }
  const Result<double> eod = EqualizedOddsDifference(yhat, y, s);
  if (eod.ok()) {
    EXPECT_GE(eod.value(), 0.0);
    EXPECT_LE(eod.value(), 1.0);
  }
  const Result<double> mi = MutualInformation(yhat, s);
  if (mi.ok()) {
    EXPECT_GE(mi.value(), 0.0);
    EXPECT_LE(mi.value(), std::log(2.0) + 1e-12);
  }
}

TEST_P(FairnessProperty, RelaxedNotionIsLinearInScores) {
  // v(a*h1 + b*h2) == a*v(h1) + b*v(h2): the linearity Definition 1's
  // relaxation is designed to have (it is what makes the constraint
  // convex).
  Rng rng(GetParam().seed + 1);
  const std::size_t n = GetParam().size + 4;
  std::vector<int> s(n);
  std::vector<double> h1(n), h2(n), combo(n);
  bool has_pos = false, has_neg = false;
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = rng.Bernoulli(0.5) ? 1 : -1;
    has_pos |= s[i] == 1;
    has_neg |= s[i] == -1;
    h1[i] = rng.Uniform();
    h2[i] = rng.Uniform();
    combo[i] = 0.3 * h1[i] + 0.7 * h2[i];
  }
  if (!has_pos || !has_neg) return;  // degenerate draw
  const double v1 =
      RelaxedFairness(FairnessNotion::kDdp, h1, s, {}).value_or(0.0);
  const double v2 =
      RelaxedFairness(FairnessNotion::kDdp, h2, s, {}).value_or(0.0);
  const double vc =
      RelaxedFairness(FairnessNotion::kDdp, combo, s, {}).value_or(0.0);
  EXPECT_NEAR(vc, 0.3 * v1 + 0.7 * v2, 1e-9);
}

TEST_P(FairnessProperty, GaussianLogPdfMatchesDirectFormula) {
  // LogPdf computed via Cholesky equals the direct formula with the
  // explicit inverse.
  Rng rng(GetParam().seed + 2);
  const std::size_t d = 2 + GetParam().size % 4;
  Matrix samples(50 + GetParam().size, d);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples.data()[i] = rng.Gaussian();
  }
  CovarianceConfig config;
  const Result<Gaussian> g = Gaussian::Fit(samples, config);
  ASSERT_TRUE(g.ok());
  std::vector<double> z(d);
  for (double& v : z) v = rng.Gaussian();
  const double maha = g.value().MahalanobisSquared(z);
  const double direct =
      -0.5 * (d * std::log(2.0 * M_PI) + g.value().log_det() + maha);
  EXPECT_NEAR(g.value().LogPdf(z), direct, 1e-10);
  EXPECT_GE(maha, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FairnessProperty,
    ::testing::Values(SizeSeed{8, 5}, SizeSeed{32, 15}, SizeSeed{128, 25},
                      SizeSeed{512, 35}),
    SizeName);

}  // namespace
}  // namespace faction
