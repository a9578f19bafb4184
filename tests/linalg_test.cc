#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace faction {
namespace {

// Builds a random SPD matrix A = B B^T + n*I.
Matrix RandomSpd(std::size_t n, Rng* rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng->Gaussian();
  Matrix a = MatMulBt(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(CholeskyTest, ReconstructsMatrix) {
  Rng rng(2);
  const Matrix a = RandomSpd(6, &rng);
  const Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  const Matrix recon = MatMulBt(l.value(), l.value());
  EXPECT_LT(MaxAbsDiff(a, recon), 1e-9);
}

TEST(CholeskyTest, LowerTriangular) {
  Rng rng(3);
  const Matrix a = RandomSpd(5, &rng);
  const Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_EQ(l.value()(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, RejectsNonSquare) {
  const Matrix a(2, 3);
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix a = {{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  const Result<Matrix> l = Cholesky(a);
  ASSERT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kNumericalError);
}

TEST(SolveTest, ForwardAndBackSolve) {
  Rng rng(5);
  const Matrix a = RandomSpd(7, &rng);
  const Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  std::vector<double> x_true(7);
  for (double& v : x_true) v = rng.Gaussian();
  // b = A x
  std::vector<double> b(7, 0.0);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 7; ++j) b[i] += a(i, j) * x_true[j];
  }
  const std::vector<double> x = CholeskySolve(l.value(), b);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(SolveTest, IdentitySolveIsIdentity) {
  const Matrix id = Matrix::Identity(4);
  const Result<Matrix> l = Cholesky(id);
  ASSERT_TRUE(l.ok());
  const std::vector<double> b = {1, 2, 3, 4};
  EXPECT_EQ(CholeskySolve(l.value(), b), b);
}

TEST(LogDetTest, MatchesKnownValue) {
  // diag(4, 9): det = 36, logdet = log(36).
  const Matrix a = {{4.0, 0.0}, {0.0, 9.0}};
  const Result<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(LogDetFromCholesky(l.value()), std::log(36.0), 1e-12);
}

TEST(PowerIterationTest, DiagonalMatrix) {
  Rng rng(11);
  const Matrix w = {{3.0, 0.0}, {0.0, 1.0}};
  const SpectralEstimate est = PowerIteration(w, {}, 50, &rng);
  EXPECT_NEAR(est.sigma, 3.0, 1e-6);
  // Dominant singular direction is e0.
  EXPECT_NEAR(std::fabs(est.u[0]), 1.0, 1e-4);
}

TEST(PowerIterationTest, MatchesFrobeniusForRankOne) {
  // Rank-one matrix u v^T has sigma = |u| * |v|.
  const Matrix w = {{2.0, 4.0}, {1.0, 2.0}};  // (2,1)^T (1,2)
  Rng rng(13);
  const SpectralEstimate est = PowerIteration(w, {}, 50, &rng);
  EXPECT_NEAR(est.sigma, std::sqrt(5.0) * std::sqrt(5.0), 1e-6);
}

TEST(PowerIterationTest, WarmStartConverges) {
  Rng rng(17);
  Matrix w(6, 4);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.Gaussian();
  SpectralEstimate est = PowerIteration(w, {}, 1, &rng);
  // Iterating with warm starts should be monotone-ish toward sigma_max;
  // after many warm-started single steps it matches a long cold run.
  for (int i = 0; i < 60; ++i) est = PowerIteration(w, est.u, 1, &rng);
  const SpectralEstimate cold = PowerIteration(w, {}, 200, &rng);
  EXPECT_NEAR(est.sigma, cold.sigma, 1e-6);
}

// sigma comes from the W v products the last iteration formed for u. It
// must be bitwise the three-pass formula |u^T (W v)| over the returned u
// and v, at 0, 1 and 3 iterations, warm-started, and through the
// degenerate restart: entries of 1e-14 make W^T u and W v too short to
// normalize, so v and u restart from e0.
TEST(PowerIterationTest, SigmaIsThreePassFormulaBitwise) {
  Rng rng(23);
  Matrix dense(7, 5), tiny(4, 3);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense.data()[i] = rng.Gaussian();
  }
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    tiny.data()[i] = 1e-14 * rng.Gaussian();
  }
  for (const Matrix* w : {&dense, &tiny}) {
    for (const int iters : {0, 1, 3}) {
      SCOPED_TRACE(iters);
      SpectralEstimate est;
      est.u.resize(w->rows());
      for (double& x : est.u) x = rng.Gaussian();
      Rng iteration_rng(29);
      PowerIterationInto(*w, iters, &iteration_rng, &est);
      double sigma = 0.0;
      for (std::size_t i = 0; i < w->rows(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < w->cols(); ++j) {
          acc += (*w)(i, j) * est.v[j];
        }
        sigma += est.u[i] * acc;
      }
      sigma = std::fabs(sigma);
      EXPECT_EQ(std::memcmp(&sigma, &est.sigma, sizeof sigma), 0)
          << sigma << " vs " << est.sigma;
      if (w == &tiny && iters > 0) {
        EXPECT_EQ(est.u[0], 1.0);
        EXPECT_EQ(est.v[0], 1.0);
        EXPECT_GT(est.sigma, 0.0);
      }
    }
  }
}

TEST(PowerIterationTest, SigmaBoundsSpectralScaling) {
  Rng rng(19);
  Matrix w(5, 5);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.Gaussian();
  const SpectralEstimate est = PowerIteration(w, {}, 100, &rng);
  // sigma is at least the 2-norm of any row (action on a basis vector),
  // and at most the Frobenius norm.
  double max_row = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    max_row = std::max(max_row, Norm2(w.Row(i)));
  }
  EXPECT_GE(est.sigma + 1e-9, max_row);
  EXPECT_LE(est.sigma, std::sqrt(FrobeniusNorm2(w)) + 1e-9);
}

TEST(PowerIterationTest, EmptyMatrix) {
  Rng rng(23);
  const Matrix w;
  const SpectralEstimate est = PowerIteration(w, {}, 5, &rng);
  EXPECT_EQ(est.sigma, 0.0);
}

TEST(PowerIterationTest, ZeroMatrixGivesZeroSigma) {
  Rng rng(29);
  const Matrix w(3, 3);
  const SpectralEstimate est = PowerIteration(w, {}, 10, &rng);
  EXPECT_NEAR(est.sigma, 0.0, 1e-12);
}

}  // namespace
}  // namespace faction
