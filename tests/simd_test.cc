// Parity suite for the SIMD micro-kernel compute layer (tensor/simd.h):
// every dispatch tier must be bitwise-identical to the retained blocked
// references, at every thread count, over odd shapes and adversarial
// values (negative zeros, denormals). This is the enforcement arm of the
// determinism contract in DESIGN.md §12.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "density/gaussian.h"
#include "nn/activation.h"
#include "nn/conv_kernels.h"
#include "nn/loss.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

#include "gtest/gtest.h"

namespace faction {
namespace {

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelSupported(level)) out.push_back(level);
  }
  return out;
}

// Restores the dispatched tier when a test scope ends.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(ActiveSimdLevel()) {
    EXPECT_TRUE(SetSimdLevel(level).ok());
  }
  ~ScopedSimdLevel() { (void)SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ParallelThreadCount()) {}
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

// Gaussian values seasoned with signed zeros and denormals: the values a
// naive SIMD kernel is most likely to reassociate or flush differently.
Matrix TrickyMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  for (std::size_t i = 0; i < m.size(); i += 7) {
    m.data()[i] = (i % 14 == 0) ? 0.0 : -0.0;
  }
  for (std::size_t i = 3; i < m.size(); i += 11) {
    m.data()[i] = (i % 2 == 0 ? 1.0 : -1.0) * 4.9e-324;  // denormal
  }
  return m;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct GemmShape {
  std::size_t m, k, n;
};

const GemmShape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},    {7, 5, 3},     {5, 8, 2},
    {16, 16, 16}, {33, 17, 9},  {64, 48, 16},  {129, 65, 31},
    {64, 16, 48}, {3, 1, 5},    {1, 9, 1},     {12, 66, 20},
    // MatMulAt {m, k, n}: the MLP's first-layer weight gradient
    // dy(64x48)^T x(64x12), and n = 37, more than one panel plus a tail
    // at every lane width.
    {48, 64, 12}, {20, 64, 37},
};

// Declared first in this binary: checks the env-var dispatch before any
// other test overrides the tier with SetSimdLevel. The ctest leg
// simd_test_generic runs the whole binary with FACTION_SIMD_LEVEL=generic
// through this assertion.
TEST(SimdDispatch, HonorsEnvironmentOnFirstResolve) {
  const char* env = std::getenv("FACTION_SIMD_LEVEL");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "FACTION_SIMD_LEVEL not set";
  }
  Result<SimdLevel> want = ParseSimdLevel(env);
  if (!want.ok() || !SimdLevelSupported(want.value())) {
    GTEST_SKIP() << "requested level unavailable on this host";
  }
  EXPECT_EQ(ActiveSimdLevel(), want.value());
}

TEST(SimdDispatch, GenericAlwaysSupported) {
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kGeneric));
  EXPECT_FALSE(SupportedLevels().empty());
}

TEST(SimdDispatch, ParseLevelNames) {
  EXPECT_EQ(ParseSimdLevel("generic").value(), SimdLevel::kGeneric);
  EXPECT_EQ(ParseSimdLevel("avx2").value(), SimdLevel::kAvx2);
  EXPECT_EQ(ParseSimdLevel("avx512").value(), SimdLevel::kAvx512);
  EXPECT_TRUE(ParseSimdLevel("native").ok());
  EXPECT_FALSE(ParseSimdLevel("sse9").ok());
  EXPECT_FALSE(ParseSimdLevel("").ok());
}

TEST(SimdDispatch, SetLevelSwitchesActiveTable) {
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_STREQ(ActiveSimd().name, SimdLevelName(level));
  }
}

TEST(SimdDispatch, SetUnsupportedLevelFails) {
  for (SimdLevel level :
       {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!SimdLevelSupported(level)) {
      const SimdLevel before = ActiveSimdLevel();
      EXPECT_FALSE(SetSimdLevel(level).ok());
      EXPECT_EQ(ActiveSimdLevel(), before);
    }
  }
}

TEST(SimdGemm, MatMulBitwiseParityAcrossLevels) {
  Rng rng(1234);
  for (const GemmShape& s : kShapes) {
    const Matrix a = TrickyMatrix(s.m, s.k, &rng);
    const Matrix b = TrickyMatrix(s.k, s.n, &rng);
    Matrix ref;
    ReferenceMatMulInto(a, b, &ref);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      Matrix got;
      MatMulInto(a, b, &got);
      ASSERT_TRUE(BitwiseEqual(ref, got))
          << "MatMul " << s.m << "x" << s.k << "x" << s.n << " at "
          << SimdLevelName(level);
    }
  }
}

TEST(SimdGemm, MatMulBtBitwiseParityAcrossLevels) {
  Rng rng(99);
  for (const GemmShape& s : kShapes) {
    const Matrix a = TrickyMatrix(s.m, s.k, &rng);
    const Matrix b = TrickyMatrix(s.n, s.k, &rng);
    Matrix ref;
    ReferenceMatMulBtInto(a, b, &ref);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      Matrix got;
      MatMulBtInto(a, b, &got);
      ASSERT_TRUE(BitwiseEqual(ref, got))
          << "MatMulBt " << s.m << "x" << s.k << "x" << s.n << " at "
          << SimdLevelName(level);
    }
  }
}

TEST(SimdGemm, MatMulAtBitwiseParityAcrossLevels) {
  Rng rng(77);
  for (const GemmShape& s : kShapes) {
    const Matrix a = TrickyMatrix(s.k, s.m, &rng);
    const Matrix b = TrickyMatrix(s.k, s.n, &rng);
    Matrix ref;
    ReferenceMatMulAtInto(a, b, &ref);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      Matrix got;
      MatMulAtInto(a, b, &got);
      ASSERT_TRUE(BitwiseEqual(ref, got))
          << "MatMulAt " << s.m << "x" << s.k << "x" << s.n << " at "
          << SimdLevelName(level);
    }
  }
}

TEST(SimdGemm, EmptyAndDegenerateShapes) {
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    // k == 0: the product is a zero matrix even though no k-loop runs.
    Matrix a(3, 0), b(0, 4);
    Matrix out;
    MatMulInto(a, b, &out);
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.data()[i], 0.0);
    }
    Matrix bt_out;
    MatMulBtInto(a, Matrix(5, 0), &bt_out);
    ASSERT_EQ(bt_out.rows(), 3u);
    ASSERT_EQ(bt_out.cols(), 5u);
    for (std::size_t i = 0; i < bt_out.size(); ++i) {
      EXPECT_EQ(bt_out.data()[i], 0.0);
    }
    Matrix at_out;
    MatMulAtInto(Matrix(0, 3), Matrix(0, 2), &at_out);
    ASSERT_EQ(at_out.rows(), 3u);
    ASSERT_EQ(at_out.cols(), 2u);
    for (std::size_t i = 0; i < at_out.size(); ++i) {
      EXPECT_EQ(at_out.data()[i], 0.0);
    }
  }
}

TEST(SimdGemm, ThreadCountDeterminism) {
  Rng rng(555);
  const Matrix a = TrickyMatrix(129, 65, &rng);
  const Matrix b = TrickyMatrix(65, 31, &rng);
  const Matrix bt = TrickyMatrix(31, 65, &rng);
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    ThreadCountGuard threads;
    Matrix one_mm, one_bt, one_at;
    SetParallelThreadCount(1);
    MatMulInto(a, b, &one_mm);
    MatMulBtInto(a, bt, &one_bt);
    MatMulAtInto(a, a, &one_at);
    Matrix eight_mm, eight_bt, eight_at;
    SetParallelThreadCount(8);
    MatMulInto(a, b, &eight_mm);
    MatMulBtInto(a, bt, &eight_bt);
    MatMulAtInto(a, a, &eight_at);
    EXPECT_TRUE(BitwiseEqual(one_mm, eight_mm)) << SimdLevelName(level);
    EXPECT_TRUE(BitwiseEqual(one_bt, eight_bt)) << SimdLevelName(level);
    EXPECT_TRUE(BitwiseEqual(one_at, eight_at)) << SimdLevelName(level);
  }
}

// ---------------------------------------------------------------------------
// Fused dense-layer epilogues, against the unfused composition they
// replaced: the reference GEMM, then the element loops Linear and Relu ran
// (scale when != 1, bias, ReLU; scale, then the ReLU mask backward;
// gradient += scale * product).

// TrickyMatrix plus a quiet NaN every 13th element. Every NaN carries the
// same bits and no operation here can make a fresh one (no infinities),
// so NaN results are bitwise comparable too.
Matrix TrickyNanMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m = TrickyMatrix(rows, cols, rng);
  for (std::size_t i = 5; i < m.size(); i += 13) {
    m.data()[i] = std::numeric_limits<double>::quiet_NaN();
  }
  return m;
}

// The unfused dense forward over the reference product x w^T: y *= scale,
// y += bias, then the Relu class's own loops. A training ReLU's mask is
// read back through Relu::Backward on ones (1 * mask is the mask bit for
// bit).
Matrix UnfusedDense(const Matrix& product, double scale, const Matrix* bias,
                    GemmAct act, Matrix* mask) {
  Matrix y = product;
  if (scale != 1.0) {
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] *= scale;
  }
  if (bias != nullptr) {
    for (std::size_t i = 0; i < y.rows(); ++i) {
      for (std::size_t j = 0; j < y.cols(); ++j) y(i, j) += (*bias)(0, j);
    }
  }
  if (act == GemmAct::kReluTrain) {
    Relu relu;
    y = relu.Forward(y);
    *mask = relu.Backward(Matrix(y.rows(), y.cols(), 1.0));
  } else if (act == GemmAct::kReluInference) {
    y = Relu::ForwardInference(y);
  }
  return y;
}

const std::size_t kDenseRows[] = {1, 3, 64};
const std::size_t kDenseWidths[] = {2, 12, 16, 48};
const double kDenseScales[] = {1.0, 0.3};

// The 8000-row trunk and head shapes of the NYSF workloads: {in, out}.
struct DenseShape {
  std::size_t in, out;
};
const DenseShape kTrunkShapes[] = {{12, 48}, {48, 16}, {16, 2}};

// Every fused forward (no act, training ReLU with its mask, inference
// ReLU; with and without a bias) at every tier equals the unfused layer.
void ExpectFusedForwardParity(std::size_t rows, std::size_t in,
                              std::size_t out, Rng* rng) {
  const Matrix x = TrickyNanMatrix(rows, in, rng);
  const Matrix w = TrickyNanMatrix(out, in, rng);
  const Matrix bias = TrickyMatrix(1, out, rng);
  Matrix product;
  ReferenceMatMulBtInto(x, w, &product);
  for (const double scale : kDenseScales) {
    for (const Matrix* b : {static_cast<const Matrix*>(nullptr), &bias}) {
      for (const GemmAct act : {GemmAct::kNone, GemmAct::kReluTrain,
                                GemmAct::kReluInference}) {
        Matrix ref_mask;
        const Matrix ref = UnfusedDense(product, scale, b, act, &ref_mask);
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel guard(level);
          GemmEpilogue ep;
          ep.scale = scale;
          ep.bias = b;
          ep.act = act;
          Matrix got, mask;
          ep.relu_mask = &mask;
          MatMulBtInto(x, w, &got, ep);
          ASSERT_TRUE(BitwiseEqual(ref, got))
              << "dense " << rows << "x" << in << "->" << out << " scale "
              << scale << " bias " << (b != nullptr) << " act "
              << static_cast<int>(act) << " at " << SimdLevelName(level);
          if (act == GemmAct::kReluTrain) {
            ASSERT_TRUE(BitwiseEqual(ref_mask, mask))
                << "mask " << rows << "x" << in << "->" << out << " at "
                << SimdLevelName(level);
          }
        }
      }
    }
  }
}

TEST(SimdFused, DenseForwardMatchesUnfusedAcrossLevels) {
  Rng rng(2024);
  for (const std::size_t rows : kDenseRows) {
    for (const std::size_t in : kDenseWidths) {
      // Outputs 1 and 3 also reach the narrow kernel at every tier, 3 with
      // flat runs that straddle rows.
      for (const std::size_t out : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{12},
                                    std::size_t{16}, std::size_t{48}}) {
        ExpectFusedForwardParity(rows, in, out, &rng);
      }
    }
  }
  for (const DenseShape& s : kTrunkShapes) {
    ExpectFusedForwardParity(8000, s.in, s.out, &rng);
  }
}

// The epilogue sees NaN, both zeros and denormals directly: a one-column
// GEMM against w = +-1 makes acc = +-x, the scale 0.3 underflows the
// smallest denormals to a signed zero, and a -0.0 bias keeps -0.0
// (-0.0 + -0.0). Both ReLU semantics must survive, as ReluTest pins them.
TEST(SimdFused, ReluEpilogueEdgeValues) {
  const double edges[] = {std::numeric_limits<double>::quiet_NaN(),
                          0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          1.5,
                          -2.5};
  Matrix x(7 * 3, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = edges[i % 7];
  const Matrix w = {{1.0}, {-1.0}};
  const Matrix bias = {{-0.0, -0.0}};
  Matrix product;
  ReferenceMatMulBtInto(x, w, &product);
  for (const double scale : kDenseScales) {
    for (const Matrix* b : {static_cast<const Matrix*>(nullptr), &bias}) {
      for (const GemmAct act : {GemmAct::kReluTrain,
                                GemmAct::kReluInference}) {
        Matrix ref_mask;
        const Matrix ref = UnfusedDense(product, scale, b, act, &ref_mask);
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel guard(level);
          GemmEpilogue ep;
          ep.scale = scale;
          ep.bias = b;
          ep.act = act;
          Matrix got, mask;
          ep.relu_mask = &mask;
          MatMulBtInto(x, w, &got, ep);
          ASSERT_TRUE(BitwiseEqual(ref, got))
              << "act " << static_cast<int>(act) << " scale " << scale
              << " at " << SimdLevelName(level);
          if (act == GemmAct::kReluTrain) {
            ASSERT_TRUE(BitwiseEqual(ref_mask, mask))
                << SimdLevelName(level);
          }
        }
      }
    }
  }
}

// dL/dx of a dense layer: dy * W, times scale when != 1, then the lower
// ReLU's mask — against the reference GEMM and the two element loops.
TEST(SimdFused, InputGradientMatchesUnfusedAcrossLevels) {
  Rng rng(2025);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{8000}}) {
    for (const std::size_t out : kDenseWidths) {
      for (const std::size_t in : kDenseWidths) {
        // At 8000 rows only the trunk's shape (dx of the 12 -> 48 layer
        // is never formed; 48 -> 16 and 16 -> 2 feed a 48- or 16-wide dx).
        if (rows == 8000 && !(in == 48 && out == 16) &&
            !(in == 16 && out == 2)) {
          continue;
        }
        const Matrix dy = TrickyNanMatrix(rows, out, &rng);
        const Matrix w = TrickyNanMatrix(out, in, &rng);
        Matrix mask(rows, in);
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = rng.Uniform() < 0.5 ? 1.0 : 0.0;
        }
        Matrix product;
        ReferenceMatMulInto(dy, w, &product);
        for (const double scale : kDenseScales) {
          for (const bool masked : {false, true}) {
            Matrix ref = product;
            if (scale != 1.0) {
              for (std::size_t i = 0; i < ref.size(); ++i) {
                ref.data()[i] *= scale;
              }
            }
            if (masked) {
              for (std::size_t i = 0; i < ref.size(); ++i) {
                ref.data()[i] *= mask.data()[i];
              }
            }
            for (SimdLevel level : SupportedLevels()) {
              ScopedSimdLevel guard(level);
              GemmEpilogue ep;
              ep.scale = scale;
              if (masked) {
                ep.act = GemmAct::kMask;
                ep.grad_mask = &mask;
              }
              Matrix got;
              MatMulInto(dy, w, &got, ep);
              ASSERT_TRUE(BitwiseEqual(ref, got))
                  << "dx " << rows << "x" << out << "->" << in << " scale "
                  << scale << " masked " << masked << " at "
                  << SimdLevelName(level);
            }
          }
        }
      }
    }
  }
}

// The weight gradient accumulated in place: g += scale * (dy^T x),
// against the reference product and the axpy loop it replaced.
TEST(SimdFused, WeightGradientAccumulateMatchesUnfusedAcrossLevels) {
  Rng rng(2026);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{8000}}) {
    for (const std::size_t out : kDenseWidths) {
      for (const std::size_t in : kDenseWidths) {
        if (rows == 8000 && !(in == 12 && out == 48) &&
            !(in == 48 && out == 16) && !(in == 16 && out == 2)) {
          continue;  // at 8000 rows, the trunk's shapes only
        }
        const Matrix dy = TrickyNanMatrix(rows, out, &rng);
        const Matrix x = TrickyNanMatrix(rows, in, &rng);
        const Matrix g0 = TrickyMatrix(out, in, &rng);
        Matrix product;
        ReferenceMatMulAtInto(dy, x, &product);
        for (const double scale : kDenseScales) {
          Matrix ref = g0;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ref.data()[i] += scale * product.data()[i];
          }
          for (SimdLevel level : SupportedLevels()) {
            ScopedSimdLevel guard(level);
            Matrix got = g0;
            MatMulAtAccumulateInto(dy, x, scale, &got);
            ASSERT_TRUE(BitwiseEqual(ref, got))
                << "gw " << rows << "x" << out << "^T * " << in << " scale "
                << scale << " at " << SimdLevelName(level);
          }
        }
      }
    }
  }
}

TEST(SimdConv, ForwardBitwiseParityAcrossLevels) {
  struct Geo {
    std::size_t ic, h, w, kernel, stride, pad, oc;
  };
  const Geo geos[] = {
      {1, 5, 7, 3, 1, 1, 3}, {2, 7, 5, 3, 2, 1, 4}, {3, 8, 8, 3, 1, 1, 5},
      {1, 4, 4, 2, 1, 0, 1}, {2, 6, 5, 3, 1, 2, 2},
  };
  Rng rng(31);
  for (const Geo& geo : geos) {
    ConvGeometry g;
    g.in_channels = geo.ic;
    g.height = geo.h;
    g.width = geo.w;
    g.kernel = geo.kernel;
    g.stride = geo.stride;
    g.pad = geo.pad;
    const Matrix x = TrickyMatrix(1, g.InFlat(), &rng);
    const Matrix w = TrickyMatrix(geo.oc, g.PatchSize(), &rng);
    const Matrix bias = TrickyMatrix(1, geo.oc, &rng);
    std::vector<double> naive(geo.oc * g.OutPositions());
    NaiveConvForward(g, geo.oc, x.data(), w.data(), bias.data(),
                     naive.data());
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      std::vector<double> gemm(naive.size(), -1.0);
      ConvScratch scratch;
      GemmConvForward(g, geo.oc, x.data(), w.data(), bias.data(),
                      gemm.data(), &scratch);
      ASSERT_EQ(std::memcmp(naive.data(), gemm.data(),
                            naive.size() * sizeof(double)),
                0)
          << "conv " << geo.ic << "x" << geo.h << "x" << geo.w << " at "
          << SimdLevelName(level);
    }
  }
}

TEST(SimdLoss, FusedSoftmaxCrossEntropyParityAcrossLevels) {
  Rng rng(404);
  for (const std::size_t classes : {2u, 3u, 5u}) {
    Matrix logits = TrickyMatrix(37, classes, &rng);
    // Rows of tied signed zeros: the vector max may pick the other zero's
    // sign; the loss and gradient must be bitwise identical anyway.
    for (std::size_t j = 0; j < classes; ++j) {
      logits(0, j) = (j % 2 == 0) ? 0.0 : -0.0;
      logits(1, j) = (j % 2 == 0) ? -0.0 : 0.0;
      logits(2, j) = -0.0;
    }
    std::vector<int> labels(logits.rows());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<int>(i % classes);
    }
    Matrix ref_grad;
    const double ref_loss = SoftmaxCrossEntropy(logits, labels, &ref_grad);
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      Matrix grad;
      const double loss = FusedSoftmaxCrossEntropy(logits, labels, &grad);
      EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
          << SimdLevelName(level);
      ASSERT_TRUE(BitwiseEqual(ref_grad, grad)) << SimdLevelName(level);
    }
  }
}

TEST(SimdDensity, LogPdfBatchBitwiseParityAcrossLevels) {
  Rng rng(2024);
  for (const std::size_t d : {1u, 3u, 16u}) {
    const Matrix samples = TrickyMatrix(50, d, &rng);
    Result<Gaussian> fitted = Gaussian::Fit(samples, CovarianceConfig{});
    ASSERT_TRUE(fitted.ok());
    const Gaussian& g = fitted.value();
    // Row counts chosen so that, at every lane width (2, 4, 8), the
    // 256-wide sample blocks reach the 4-vector solve body, the
    // single-vector loop and the scalar tail: 600 = 256 + 256 + 88 and
    // 293 = 256 + 37 also cover full and ragged blocks.
    for (const std::size_t rows : {1u, 7u, 33u, 131u, 293u, 600u}) {
      const Matrix zs = TrickyMatrix(rows, d, &rng);
      std::vector<double> per_sample(zs.rows());
      std::vector<double> z(d);
      for (std::size_t i = 0; i < zs.rows(); ++i) {
        std::copy(zs.row_data(i), zs.row_data(i) + d, z.begin());
        per_sample[i] = g.LogPdf(z);
      }
      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel guard(level);
        ThreadCountGuard threads;
        for (int nthreads : {1, 8}) {
          SetParallelThreadCount(nthreads);
          const std::vector<double> batch = g.LogPdfBatch(zs);
          ASSERT_EQ(std::memcmp(per_sample.data(), batch.data(),
                                batch.size() * sizeof(double)),
                    0)
              << "d=" << d << " rows=" << rows << " at "
              << SimdLevelName(level) << " threads " << nthreads;
        }
      }
    }
  }
}

// The downdate guard solve (L p = v per column + ascending squared norm)
// must be bitwise identical across tiers: Gaussian::DowndateOne branches
// on the norm, so a single ulp of divergence would flip the PD-guard
// decision on some input and fork the estimator state between tiers.
TEST(SimdDensity, DowndateSolveBitwiseParityAcrossLevels) {
  Rng rng(909);
  for (const std::size_t d : {1u, 3u, 16u}) {
    // Well-conditioned lower factor: positive diagonal, modest fill.
    Matrix chol(d, d, 0.0);
    for (std::size_t j = 0; j < d; ++j) {
      chol(j, j) = 1.5 + 0.1 * static_cast<double>(j);
      for (std::size_t k = 0; k < j; ++k) {
        chol(j, k) = 0.3 * rng.Gaussian();
      }
    }
    for (const std::size_t width : {1u, 4u, 7u}) {
      const Matrix vs0 = TrickyMatrix(d, width, &rng);  // dim-major d x width
      // Naive per-column forward solve + ascending norm: the semantic
      // reference (tolerance), while the generic tier anchors bitwise.
      std::vector<double> want_p(d * width), want_norm(width, 0.0);
      for (std::size_t t = 0; t < width; ++t) {
        for (std::size_t j = 0; j < d; ++j) {
          double acc = vs0.data()[j * width + t];
          for (std::size_t k = 0; k < j; ++k) {
            acc -= chol(j, k) * want_p[k * width + t];
          }
          want_p[j * width + t] = acc / chol(j, j);
        }
        for (std::size_t j = 0; j < d; ++j) {
          const double p = want_p[j * width + t];
          want_norm[t] += p * p;
        }
      }

      std::vector<double> generic_p, generic_norm;
      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel guard(level);
        std::vector<double> vs(vs0.data(), vs0.data() + vs0.size());
        std::vector<double> pnorm2(width, -1.0);
        ActiveSimd().downdate_solve(chol.data(), d, vs.data(), width,
                                    pnorm2.data());
        for (std::size_t i = 0; i < vs.size(); ++i) {
          EXPECT_NEAR(vs[i], want_p[i], 1e-12 * (1.0 + std::fabs(want_p[i])))
              << "d=" << d << " width=" << width << " at "
              << SimdLevelName(level);
        }
        for (std::size_t t = 0; t < width; ++t) {
          EXPECT_NEAR(pnorm2[t], want_norm[t],
                      1e-12 * (1.0 + want_norm[t]))
              << "d=" << d << " width=" << width << " at "
              << SimdLevelName(level);
        }
        if (generic_p.empty()) {
          generic_p = vs;
          generic_norm = pnorm2;
        } else {
          ASSERT_EQ(std::memcmp(generic_p.data(), vs.data(),
                                vs.size() * sizeof(double)),
                    0)
              << "d=" << d << " width=" << width << " at "
              << SimdLevelName(level);
          ASSERT_EQ(std::memcmp(generic_norm.data(), pnorm2.data(),
                                pnorm2.size() * sizeof(double)),
                    0)
              << "d=" << d << " width=" << width << " at "
              << SimdLevelName(level);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Broadcast edge values. Every kernel scalar that is broadcast to a vector
// (Splat in simd_kernels.inc: GEMM a entries, the epilogue scale, conv
// weights and bias, the axpy factor, the solve's Cholesky entries and
// base) takes -0.0, the smallest denormal and a quiet NaN with a payload,
// and each kernel must match its scalar reference bit for bit. A
// broadcast built by anything but an exact identity could flip the zero's
// sign, flush the denormal or canonicalize the NaN. One NaN
// payload per case and no fresh NaN beside it: with two different NaNs in
// one operation the result would depend on operand order.

double PayloadNan() {
  const std::uint64_t bits = 0x7ff8000000000123ULL;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<double> BroadcastEdges() {
  return {-0.0, std::numeric_limits<double>::denorm_min(), PayloadNan()};
}

// TrickyMatrix with `edge` written to every 5th element, the first included.
Matrix EdgeMatrix(std::size_t rows, std::size_t cols, double edge, Rng* rng) {
  Matrix m = TrickyMatrix(rows, cols, rng);
  for (std::size_t i = 0; i < m.size(); i += 5) m.data()[i] = edge;
  return m;
}

TEST(SimdBroadcast, GemmEdgeEntriesAndEpilogueScaleBias) {
  Rng rng(4242);
  for (const double edge : BroadcastEdges()) {
    for (const GemmShape& s : kShapes) {
      const Matrix a = EdgeMatrix(s.m, s.k, edge, &rng);
      const Matrix b = TrickyMatrix(s.k, s.n, &rng);
      const Matrix bt = TrickyMatrix(s.n, s.k, &rng);
      const Matrix bias = EdgeMatrix(1, s.n, edge, &rng);
      const Matrix g0 = TrickyMatrix(s.k, s.n, &rng);
      const Matrix at_b = TrickyMatrix(s.m, s.n, &rng);
      Matrix prod, prod_bt, prod_at;
      ReferenceMatMulInto(a, b, &prod);
      ReferenceMatMulBtInto(a, bt, &prod_bt);
      ReferenceMatMulAtInto(a, at_b, &prod_at);
      for (const double scale : {1.0, edge}) {
        Matrix mask;
        const Matrix ref = UnfusedDense(prod, scale, nullptr, GemmAct::kNone,
                                        &mask);
        const Matrix ref_bt = UnfusedDense(prod_bt, scale, &bias,
                                           GemmAct::kNone, &mask);
        Matrix ref_at = g0;
        for (std::size_t i = 0; i < ref_at.size(); ++i) {
          ref_at.data()[i] += scale * prod_at.data()[i];
        }
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel guard(level);
          GemmEpilogue ep;
          ep.scale = scale;
          Matrix got;
          MatMulInto(a, b, &got, ep);
          ASSERT_TRUE(BitwiseEqual(ref, got))
              << "matmul " << s.m << "x" << s.k << "x" << s.n << " edge "
              << edge << " scale " << scale << " at " << SimdLevelName(level);
          ep.bias = &bias;
          MatMulBtInto(a, bt, &got, ep);
          ASSERT_TRUE(BitwiseEqual(ref_bt, got))
              << "matmul_bt " << s.m << "x" << s.k << "x" << s.n << " edge "
              << edge << " scale " << scale << " at " << SimdLevelName(level);
          got = g0;
          MatMulAtAccumulateInto(a, at_b, scale, &got);
          ASSERT_TRUE(BitwiseEqual(ref_at, got))
              << "matmul_at " << s.m << "x" << s.k << "x" << s.n << " edge "
              << edge << " scale " << scale << " at " << SimdLevelName(level);
        }
      }
    }
  }
}

TEST(SimdBroadcast, ConvEdgeWeightsAndBias) {
  ConvGeometry g;
  g.in_channels = 2;
  g.height = 7;
  g.width = 6;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  const std::size_t oc = 5;
  Rng rng(4343);
  for (const double edge : BroadcastEdges()) {
    // An all-zero image against negative weights makes every product
    // -0.0, so each output is its bias bit for bit: a -0.0 bias survives
    // only if its broadcast kept the sign.
    for (const bool zero_image : {false, true}) {
      Matrix x = TrickyMatrix(1, g.InFlat(), &rng);
      Matrix w = EdgeMatrix(oc, g.PatchSize(), edge, &rng);
      if (zero_image) {
        x = Matrix(1, g.InFlat(), 0.0);
        for (std::size_t i = 0; i < w.size(); ++i) {
          if (i % 5 != 0) w.data()[i] = -1.5;
        }
      }
      const Matrix bias = EdgeMatrix(1, oc, edge, &rng);
      std::vector<double> naive(oc * g.OutPositions());
      NaiveConvForward(g, oc, x.data(), w.data(), bias.data(), naive.data());
      for (SimdLevel level : SupportedLevels()) {
        ScopedSimdLevel guard(level);
        std::vector<double> gemm(naive.size(), -1.0);
        ConvScratch scratch;
        GemmConvForward(g, oc, x.data(), w.data(), bias.data(), gemm.data(),
                        &scratch);
        ASSERT_EQ(std::memcmp(naive.data(), gemm.data(),
                              naive.size() * sizeof(double)),
                  0)
            << "edge " << edge << " zero image " << zero_image << " at "
            << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdBroadcast, AxpyFactor) {
  Rng rng(4444);
  const Matrix xm = TrickyMatrix(1, 37, &rng);
  const std::vector<double> x(xm.data(), xm.data() + xm.size());
  for (const double edge : BroadcastEdges()) {
    std::vector<double> ref(x.size(), 0.5);
    for (std::size_t i = 0; i < x.size(); ++i) ref[i] += edge * x[i];
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      std::vector<double> got(x.size(), 0.5);
      ActiveSimd().axpy(edge, x.data(), got.data(), x.size());
      ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                            x.size() * sizeof(double)),
                0)
          << "axpy " << edge << " at " << SimdLevelName(level);
    }
  }
}

// logpdf_block and downdate_solve against a per-column scalar solve in
// their order: ascending-k subtract, one divide by the diagonal, ascending
// squared norm from zero, then -0.5 * (base + norm). The edge goes into one
// diagonal entry (a NaN diagonal is the only NaN; a zero or denormal one
// makes infinities whose only NaNs are the default one) or, for the NaN
// case, into off-diagonal entries too, with the diagonal kept positive; the
// base takes the edge as well.
TEST(SimdBroadcast, SolveEdgeCholeskyEntries) {
  const std::size_t d = 9;
  // Narrower than every tier width, between the avx2 and avx512 widths,
  // and every solve loop at every lane width.
  for (const std::size_t width : {1u, 5u, 37u}) {
    Rng rng(4545);
    const std::vector<double> edges = BroadcastEdges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (const bool off_diagonal : {false, true}) {
        const double edge = edges[e];
        Matrix chol(d, d, 0.0);
        for (std::size_t j = 0; j < d; ++j) {
          chol(j, j) = 1.25 + 0.1 * static_cast<double>(j);
          for (std::size_t k = 0; k < j; ++k) chol(j, k) = 0.3 * rng.Gaussian();
        }
        if (off_diagonal) {
          for (std::size_t j = 1; j < d; j += 2) chol(j, j / 2) = edge;
        } else {
          chol(d / 2, d / 2) = edge;
        }
        const Matrix ys0 = TrickyMatrix(d, width, &rng);
        std::vector<double> want_y(ys0.data(), ys0.data() + ys0.size());
        std::vector<double> want_norm(width, 0.0), want_out(width);
        for (std::size_t t = 0; t < width; ++t) {
          for (std::size_t j = 0; j < d; ++j) {
            double acc = want_y[j * width + t];
            for (std::size_t k = 0; k < j; ++k) {
              acc -= chol(j, k) * want_y[k * width + t];
            }
            want_y[j * width + t] = acc / chol(j, j);
          }
          for (std::size_t j = 0; j < d; ++j) {
            want_norm[t] += want_y[j * width + t] * want_y[j * width + t];
          }
          want_out[t] = -0.5 * (edge + want_norm[t]);
        }
        for (SimdLevel level : SupportedLevels()) {
          ScopedSimdLevel guard(level);
          std::vector<double> ys(ys0.data(), ys0.data() + ys0.size());
          std::vector<double> out(width, -1.0);
          ActiveSimd().logpdf_block(chol.data(), d, ys.data(), width, edge,
                                    out.data());
          ASSERT_EQ(std::memcmp(want_y.data(), ys.data(),
                                ys.size() * sizeof(double)),
                    0)
              << "logpdf solve edge " << edge << " off-diagonal "
              << off_diagonal << " at " << SimdLevelName(level);
          ASSERT_EQ(std::memcmp(want_out.data(), out.data(),
                                width * sizeof(double)),
                    0)
              << "logpdf out edge " << edge << " off-diagonal " << off_diagonal
              << " at " << SimdLevelName(level);
          std::vector<double> vs(ys0.data(), ys0.data() + ys0.size());
          std::vector<double> pnorm2(width, -1.0);
          ActiveSimd().downdate_solve(chol.data(), d, vs.data(), width,
                                      pnorm2.data());
          ASSERT_EQ(std::memcmp(want_y.data(), vs.data(),
                                vs.size() * sizeof(double)),
                    0)
              << "downdate solve edge " << edge << " off-diagonal "
              << off_diagonal << " at " << SimdLevelName(level);
          ASSERT_EQ(std::memcmp(want_norm.data(), pnorm2.data(),
                                width * sizeof(double)),
                    0)
              << "downdate norm edge " << edge << " off-diagonal "
              << off_diagonal << " at " << SimdLevelName(level);
        }
      }
    }
  }
}

TEST(SimdHelpers, AxpyParity) {
  Rng rng(808);
  const Matrix xm = TrickyMatrix(1, 133, &rng);
  const std::vector<double> x(xm.data(), xm.data() + xm.size());
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    const SimdKernels& kern = ActiveSimd();
    std::vector<double> ref(x.size()), got(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ref[i] = got[i] = 0.25 * static_cast<double>(i) - 3.0;
    }
    const double alpha = -1.7;
    for (std::size_t i = 0; i < x.size(); ++i) ref[i] += alpha * x[i];
    kern.axpy(alpha, x.data(), got.data(), x.size());
    ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(double)),
              0)
        << SimdLevelName(level);
  }
}

// ---------------------------------------------------------------------------
// Elementwise exp / log / log1p (the mixture scorer's transcendentals).

enum class Elementwise { kExp, kLog, kLog1p };

const char* ElementwiseName(Elementwise f) {
  switch (f) {
    case Elementwise::kExp:
      return "exp";
    case Elementwise::kLog:
      return "log";
    case Elementwise::kLog1p:
      return "log1p";
  }
  return "?";
}

void RunElementwise(Elementwise f, const double* x, double* y, std::size_t n) {
  const SimdKernels& kern = ActiveSimd();
  switch (f) {
    case Elementwise::kExp:
      kern.vexp(x, y, n);
      break;
    case Elementwise::kLog:
      kern.vlog(x, y, n);
      break;
    case Elementwise::kLog1p:
      kern.vlog1p(x, y, n);
      break;
  }
}

double Libm(Elementwise f, double x) {
  switch (f) {
    case Elementwise::kExp:
      return std::exp(x);
    case Elementwise::kLog:
      return std::log(x);
    case Elementwise::kLog1p:
      return std::log1p(x);
  }
  return 0.0;
}

double Apply(Elementwise f, double x) {
  double y = 0.0;
  RunElementwise(f, &x, &y, 1);
  return y;
}

std::uint64_t BitsOf(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Distance in representable doubles (0 for two NaNs or +0 against -0).
std::uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return UINT64_MAX;
  const auto ordered = [](double v) {
    const auto b = static_cast<std::int64_t>(BitsOf(v));
    return b < 0 ? std::numeric_limits<std::int64_t>::min() - b : b;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? static_cast<std::uint64_t>(-d) : static_cast<std::uint64_t>(d);
}

// Inputs across each kernel's domain and its edges: zeros, denormals,
// infinities, NaN, the overflow and underflow thresholds and the
// branch boundaries of the reductions.
std::vector<double> ElementwiseInputs(Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 2.0, 0.5, inf, -inf,
                           std::numeric_limits<double>::quiet_NaN(),
                           4.9e-324, -4.9e-324, 2.2250738585072014e-308,
                           1e-300, 1e300, 709.78, 709.79, 710.0, -708.4,
                           -745.1, -745.2, -1e-17, 1e-17, 0.4142, 0.41422,
                           -0.2929, -0.29290, -0.999999, -1.0000001,
                           1e-12, 0.6931471805599453, -0.34657359};
  for (int i = 0; i < 60; ++i) v.push_back(rng->Gaussian() * 20.0);
  for (int i = 0; i < 60; ++i) v.push_back(-rng->Uniform());
  for (int i = 0; i < 60; ++i) v.push_back(std::exp(rng->Gaussian() * 30.0));
  return v;
}

// A value's bits are the same at every tier, lane position and array
// length: every input visits every position of arrays 0 to 2 x lanes long.
TEST(SimdTranscendental, BitwiseAcrossTiersLanesAndTails) {
  Rng rng(909);
  const std::vector<double> inputs = ElementwiseInputs(&rng);
  const std::size_t count = inputs.size();
  for (Elementwise f :
       {Elementwise::kExp, Elementwise::kLog, Elementwise::kLog1p}) {
    std::vector<double> ref(count);
    {
      ScopedSimdLevel generic(SimdLevel::kGeneric);
      for (std::size_t i = 0; i < count; ++i) ref[i] = Apply(f, inputs[i]);
    }
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      const std::size_t lanes = ActiveSimd().lanes;
      std::vector<double> x(2 * lanes), y(2 * lanes + 1);
      for (std::size_t n = 0; n <= 2 * lanes; ++n) {
        for (std::size_t shift = 0; shift < count; ++shift) {
          for (std::size_t i = 0; i < n; ++i) {
            x[i] = inputs[(shift + i) % count];
          }
          std::fill(y.begin(), y.end(), -7.0);
          RunElementwise(f, x.data(), y.data(), n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(BitsOf(ref[(shift + i) % count]), BitsOf(y[i]))
                << ElementwiseName(f) << "(" << x[i] << ") at "
                << SimdLevelName(level) << ", position " << i << " of "
                << n;
          }
          ASSERT_EQ(-7.0, y[n]) << "wrote past n at " << SimdLevelName(level);
        }
      }
      // In place: x == y.
      std::vector<double> inplace = inputs;
      RunElementwise(f, inplace.data(), inplace.data(), count);
      ASSERT_EQ(0, std::memcmp(ref.data(), inplace.data(),
                               count * sizeof(double)))
          << ElementwiseName(f) << " in place at " << SimdLevelName(level);
    }
  }
}

TEST(SimdTranscendental, SpecialValuesExact) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(SimdLevelName(level));
    const auto exp = [](double x) { return Apply(Elementwise::kExp, x); };
    const auto log = [](double x) { return Apply(Elementwise::kLog, x); };
    const auto log1p = [](double x) { return Apply(Elementwise::kLog1p, x); };
    EXPECT_EQ(BitsOf(1.0), BitsOf(exp(0.0)));
    EXPECT_EQ(BitsOf(1.0), BitsOf(exp(-0.0)));
    EXPECT_EQ(BitsOf(0.0), BitsOf(exp(-inf)));  // +0, not -0
    EXPECT_EQ(inf, exp(inf));
    EXPECT_EQ(inf, exp(709.79));  // overflow
    EXPECT_EQ(inf, exp(1000.0));
    EXPECT_LT(exp(709.78), inf);
    EXPECT_EQ(BitsOf(0.0), BitsOf(exp(-745.2)));  // underflow
    EXPECT_EQ(BitsOf(0.0), BitsOf(exp(-1e300)));
    EXPECT_TRUE(std::isnan(exp(nan)));

    EXPECT_EQ(BitsOf(0.0), BitsOf(log(1.0)));  // +0
    EXPECT_EQ(-inf, log(0.0));
    EXPECT_EQ(-inf, log(-0.0));
    EXPECT_EQ(inf, log(inf));
    EXPECT_TRUE(std::isnan(log(-1.0)));
    EXPECT_TRUE(std::isnan(log(-4.9e-324)));
    EXPECT_TRUE(std::isnan(log(-inf)));
    EXPECT_TRUE(std::isnan(log(nan)));
    EXPECT_LE(UlpDistance(std::log(4.9e-324), log(4.9e-324)), 1u);
    EXPECT_LE(UlpDistance(std::log(1e-310), log(1e-310)), 1u);

    EXPECT_EQ(-inf, log1p(-1.0));
    EXPECT_EQ(BitsOf(-0.0), BitsOf(log1p(-0.0)));
    EXPECT_EQ(BitsOf(0.0), BitsOf(log1p(0.0)));
    EXPECT_EQ(BitsOf(4.9e-324), BitsOf(log1p(4.9e-324)));
    EXPECT_EQ(BitsOf(-1e-17), BitsOf(log1p(-1e-17)));
    EXPECT_EQ(inf, log1p(inf));
    EXPECT_TRUE(std::isnan(log1p(-1.5)));
    EXPECT_TRUE(std::isnan(log1p(-inf)));
    EXPECT_TRUE(std::isnan(log1p(nan)));
  }
}

// Results below the normal range are denormals, rounded once, within an
// ulp of libm's.
TEST(SimdTranscendental, ExpDenormalOutputs) {
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel guard(level);
    for (double x = -745.13; x < -708.3; x += 0.0137) {
      const double got = Apply(Elementwise::kExp, x);
      const double want = std::exp(x);
      EXPECT_EQ(std::fpclassify(want) == FP_SUBNORMAL,
                std::fpclassify(got) == FP_SUBNORMAL)
          << x;
      EXPECT_LE(UlpDistance(want, got), 1u)
          << "exp(" << x << ") at " << SimdLevelName(level);
    }
  }
}

// At most 2 ulp from libm over dense sweeps of the arguments the mixture
// scorer passes: exp of log-density differences (<= 0), log of the
// LogSumExp sums (>= 1) and of class posteriors in (1e-12, 1], log1p of
// -exp(-gap) in [-1, 0).
TEST(SimdTranscendental, WithinTwoUlpOfLibmOnScorerDomains) {
  struct Sweep {
    Elementwise f;
    double lo, hi;
    bool log_spaced;
  };
  constexpr std::size_t kPoints = 100003;
  for (const Sweep& sweep :
       {Sweep{Elementwise::kExp, -745.0, 0.0, false},
        Sweep{Elementwise::kExp, -2.0, 0.0, false},
        Sweep{Elementwise::kExp, -40.0, 40.0, false},
        Sweep{Elementwise::kLog, 1.0, 64.0, false},
        Sweep{Elementwise::kLog, 1e-12, 1.0, true},
        Sweep{Elementwise::kLog, 0.5, 2.0, false},
        Sweep{Elementwise::kLog1p, -1.0, 0.0, false},
        Sweep{Elementwise::kLog1p, -1e-6, 0.0, false},
        Sweep{Elementwise::kLog1p, -1.0, -0.999, false}}) {
    std::vector<double> x(kPoints), y(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      const double t = static_cast<double>(i) / (kPoints - 1);
      x[i] = sweep.log_spaced
                 ? std::exp(std::log(sweep.lo) +
                            t * (std::log(sweep.hi) - std::log(sweep.lo)))
                 : sweep.lo + t * (sweep.hi - sweep.lo);
    }
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel guard(level);
      RunElementwise(sweep.f, x.data(), y.data(), kPoints);
      std::uint64_t worst = 0;
      double worst_x = 0.0;
      for (std::size_t i = 0; i < kPoints; ++i) {
        const std::uint64_t d = UlpDistance(Libm(sweep.f, x[i]), y[i]);
        if (d > worst) {
          worst = d;
          worst_x = x[i];
        }
      }
      EXPECT_LE(worst, 2u) << ElementwiseName(sweep.f) << " on ["
                           << sweep.lo << ", " << sweep.hi << "] at "
                           << SimdLevelName(level) << ": " << worst
                           << " ulp at " << worst_x;
    }
  }
}

}  // namespace
}  // namespace faction
