// Parity suite for the SIMD micro-kernel compute layer (tensor/simd.h):
// every dispatch tier must be bitwise-identical to the retained blocked
// references, at every thread count, over odd shapes and adversarial
// values (negative zeros, denormals). This is the enforcement arm of the
// determinism contract in DESIGN.md §12.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "density/gaussian.h"
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
      const double loss = FusedSoftmaxCrossEntropy(logits, labels, &grad,
                                                   nullptr);
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
          std::vector<double> batch(zs.rows(), -1.0);
          g.LogPdfBatch(zs, batch.data());
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

TEST(SimdHelpers, AxpyDivideMaxParity) {
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

    const double s = 7.3;
    for (std::size_t i = 0; i < x.size(); ++i) ref[i] /= s;
    kern.divide(got.data(), got.size(), s);
    ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                          ref.size() * sizeof(double)),
              0)
        << SimdLevelName(level);

    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                          std::size_t{133}}) {
      double mx = x[0];
      for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
      EXPECT_EQ(kern.row_max(x.data(), n), mx)
          << SimdLevelName(level) << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace faction
