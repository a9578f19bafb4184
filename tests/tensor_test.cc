#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace faction {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FALSE(m.empty());
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 2, 3.5);
  EXPECT_EQ(m(0, 0), 3.5);
  EXPECT_EQ(m(1, 1), 3.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(MatrixTest, RowAccessors) {
  Matrix m = {{1, 2}, {3, 4}};
  const std::vector<double> r1 = m.Row(1);
  EXPECT_EQ(r1, (std::vector<double>{3, 4}));
  m.SetRow(0, {9, 8});
  EXPECT_EQ(m(0, 0), 9.0);
  EXPECT_EQ(m(0, 1), 8.0);
}

TEST(MatrixTest, IdentityAndFromRowVector) {
  const Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  EXPECT_EQ(id(2, 2), 1.0);
  const Matrix rv = Matrix::FromRowVector({1, 2, 3});
  EXPECT_EQ(rv.rows(), 1u);
  EXPECT_EQ(rv.cols(), 3u);
  EXPECT_EQ(rv(0, 1), 2.0);
}

TEST(MatrixTest, FillAndResize) {
  Matrix m(2, 2, 7.0);
  m.Fill(1.0);
  EXPECT_EQ(m(1, 1), 1.0);
  m.Resize(3, 1);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(2, 0), 0.0);
}

TEST(OpsTest, MatMulBasic) {
  const Matrix a = {{1, 2}, {3, 4}};
  const Matrix b = {{5, 6}, {7, 8}};
  const Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(3);
  Matrix a(4, 4);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  const Matrix c = MatMul(a, Matrix::Identity(4));
  EXPECT_LT(MaxAbsDiff(a, c), 1e-12);
}

TEST(OpsTest, MatMulBtMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a(3, 5), b(4, 5);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
  const Matrix expect = MatMul(a, Transpose(b));
  EXPECT_LT(MaxAbsDiff(MatMulBt(a, b), expect), 1e-12);
}

TEST(OpsTest, MatMulAtMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a(6, 3), b(6, 2);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
  const Matrix expect = MatMul(Transpose(a), b);
  EXPECT_LT(MaxAbsDiff(MatMulAt(a, b), expect), 1e-12);
}

TEST(OpsTest, TransposeInvolution) {
  Rng rng(9);
  Matrix a(3, 7);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-15);
}

TEST(OpsTest, AddScale) {
  const Matrix a = {{1, 2}, {3, 4}};
  const Matrix b = {{10, 20}, {30, 40}};
  EXPECT_EQ(Add(a, b)(1, 1), 44.0);
  EXPECT_EQ(Scale(a, 2.0)(0, 1), 4.0);
}

TEST(OpsTest, SumsAndNorms) {
  const Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(ColSums(m), (std::vector<double>{4, 6}));
  EXPECT_EQ(FrobeniusNorm2(m), 30.0);
}

TEST(OpsTest, VectorHelpers) {
  EXPECT_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_NEAR(Norm2({3, 4}), 5.0, 1e-12);
  EXPECT_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  const Matrix logits = {{1, 2, 3}, {-5, 0, 5}};
  const Matrix p = SoftmaxRows(logits);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GT(p(i, j), 0.0);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(p(0, 2), p(0, 0));
}

TEST(OpsTest, SoftmaxNumericallyStable) {
  const Matrix logits = {{1000, 1001}};
  const Matrix p = SoftmaxRows(logits);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
  EXPECT_GT(p(0, 1), p(0, 0));
}

TEST(OpsTest, LogSoftmaxMatchesSoftmax) {
  const Matrix logits = {{0.3, -1.2, 2.0}};
  const Matrix p = SoftmaxRows(logits);
  const Matrix lp = LogSoftmaxRows(logits);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(std::exp(lp(0, j)), p(0, j), 1e-12);
  }
}

TEST(OpsTest, SoftmaxShiftInvariance) {
  const Matrix a = {{1.0, 2.0}};
  const Matrix b = {{101.0, 102.0}};
  EXPECT_LT(MaxAbsDiff(SoftmaxRows(a), SoftmaxRows(b)), 1e-12);
}

TEST(OpsTest, LogSumExp) {
  EXPECT_NEAR(LogSumExp({0.0, 0.0}), std::log(2.0), 1e-12);
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({-5.0}), -5.0, 1e-12);
  // One dominant term.
  EXPECT_NEAR(LogSumExp({0.0, -1000.0}), 0.0, 1e-12);
}

TEST(OpsTest, MatMulAssociativity) {
  Rng rng(21);
  Matrix a(3, 4), b(4, 5), c(5, 2);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.Gaussian();
  const Matrix left = MatMul(MatMul(a, b), c);
  const Matrix right = MatMul(a, MatMul(b, c));
  EXPECT_LT(MaxAbsDiff(left, right), 1e-10);
}

}  // namespace
}  // namespace faction
