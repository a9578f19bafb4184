// Tier-speed guard for the SIMD compute layer (tensor/simd.h). Every tier
// computes bitwise-identical results (simd_test.cc), so no parity test can
// see a wide tier that has become slower than the portable generic one —
// yet that is exactly what a code-generation defect looks like, e.g. tier
// loads routed through memcpy paying a store-forwarding stall on every
// access (DESIGN.md §12). This guard times the two kernels the FACTION
// acquisition path spends its time in and the training step's fused
// forward and weight-gradient GEMMs, at the shapes the NYSF workloads
// run, and fails when a wide tier is more than 1.5x the generic tier.
//
// Timing is min-of-N with the tiers interleaved inside one process, so a
// slow phase of the host slows every tier alike. Registered only in
// optimized, unsanitized builds (tests/CMakeLists.txt).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "tensor/simd.h"

#include "gtest/gtest.h"

namespace faction {
namespace {

constexpr double kMaxRatioToGeneric = 1.5;

// Kernel tables of every supported tier, generic first.
std::vector<const SimdKernels*> SupportedTables() {
  const SimdLevel saved = ActiveSimdLevel();
  std::vector<const SimdKernels*> out;
  for (SimdLevel level :
       {SimdLevel::kGeneric, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!SimdLevelSupported(level)) continue;
    EXPECT_TRUE(SetSimdLevel(level).ok());
    out.push_back(&ActiveSimd());
  }
  EXPECT_TRUE(SetSimdLevel(saved).ok());
  return out;
}

std::vector<double> Gaussians(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Gaussian();
  return v;
}

// Checks best[t] <= kMaxRatioToGeneric * best[0] for every wide tier t.
void ExpectNoSlowerThanGeneric(const std::vector<const SimdKernels*>& tables,
                               const std::vector<double>& best,
                               const char* what) {
  for (std::size_t t = 0; t < tables.size(); ++t) {
    std::printf("%s: %s %.2f us\n", what, tables[t]->name, best[t] * 1e6);
  }
  for (std::size_t t = 1; t < tables.size(); ++t) {
    EXPECT_LE(best[t], kMaxRatioToGeneric * best[0])
        << what << ": " << tables[t]->name << " takes " << best[t] * 1e6
        << " us against generic " << best[0] * 1e6 << " us";
  }
}

// One 256-wide block of the blocked log-pdf solve at the model dimension
// (d=16): the unit Gaussian::LogPdfBatch splits pool scoring into.
TEST(SimdTierSpeed, LogPdfBlockNoSlowerThanGeneric) {
  const std::vector<const SimdKernels*> tables = SupportedTables();
  if (tables.size() < 2) GTEST_SKIP() << "no wide tier on this host";
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kWidth = 256;
  constexpr int kReps = 200;
  Rng rng(17);
  std::vector<double> chol(kDim * kDim, 0.0);
  for (std::size_t j = 0; j < kDim; ++j) {
    chol[j * kDim + j] = 1.5 + 0.1 * static_cast<double>(j);
    for (std::size_t k = 0; k < j; ++k) {
      chol[j * kDim + k] = 0.3 * rng.Gaussian();
    }
  }
  const std::vector<double> ys0 = Gaussians(kDim * kWidth, &rng);
  std::vector<double> ys(ys0.size());
  std::vector<double> out(kWidth);
  std::vector<double> best(tables.size(),
                           std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t t = 0; t < tables.size(); ++t) {
      // The solve runs in place: restore the block outside the timing.
      std::copy(ys0.begin(), ys0.end(), ys.begin());
      Timer timer;
      tables[t]->logpdf_block(chol.data(), kDim, ys.data(), kWidth, 1.0,
                              out.data());
      best[t] = std::min(best[t], timer.ElapsedSeconds());
    }
  }
  ExpectNoSlowerThanGeneric(tables, best, "logpdf_block d=16 width=256");
}

// The MLP trunk's inference GEMMs on an 8000-row candidate pool:
// 12 -> 48 and 48 -> 16 (y = x w^T).
TEST(SimdTierSpeed, MatMulBtRowsNoSlowerThanGeneric) {
  const std::vector<const SimdKernels*> tables = SupportedTables();
  if (tables.size() < 2) GTEST_SKIP() << "no wide tier on this host";
  struct Shape {
    std::size_t rows, kk, bn;
  };
  constexpr int kReps = 15;
  Rng rng(18);
  for (const Shape& s : {Shape{8000, 12, 48}, Shape{8000, 48, 16}}) {
    const std::vector<double> a = Gaussians(s.rows * s.kk, &rng);
    const std::vector<double> b = Gaussians(s.bn * s.kk, &rng);
    std::vector<std::vector<double>> packed(tables.size());
    for (std::size_t t = 0; t < tables.size(); ++t) {
      packed[t].resize(SimdPackedCount(*tables[t], s.kk, s.bn));
      tables[t]->pack_bt(b.data(), s.bn, s.kk, packed[t].data());
    }
    std::vector<double> c(s.rows * s.bn);
    std::vector<double> best(tables.size(),
                             std::numeric_limits<double>::infinity());
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t t = 0; t < tables.size(); ++t) {
        Timer timer;
        tables[t]->matmul_bt_rows(a.data(), packed[t].data(), c.data(), 0,
                                  s.rows, s.bn, s.kk, SimdEpilogue{});
        best[t] = std::min(best[t], timer.ElapsedSeconds());
      }
    }
    const std::string what = "matmul_bt_rows " + std::to_string(s.rows) +
                             "x" + std::to_string(s.kk) + " * " +
                             std::to_string(s.kk) + "x" +
                             std::to_string(s.bn);
    ExpectNoSlowerThanGeneric(tables, best, what.c_str());
  }
}

// The fused training forward of the MLP's first layer on one 64-row NYSF
// batch, x(64x12) w(48x12)^T: scale, bias and the training ReLU with its
// mask in the GEMM's epilogue, packing included, as MatMulBtInto runs it.
TEST(SimdTierSpeed, FusedDenseForwardNoSlowerThanGeneric) {
  const std::vector<const SimdKernels*> tables = SupportedTables();
  if (tables.size() < 2) GTEST_SKIP() << "no wide tier on this host";
  constexpr std::size_t kRows = 64, kIn = 12, kOut = 48;
  constexpr int kReps = 2000;
  Rng rng(20);
  const std::vector<double> x = Gaussians(kRows * kIn, &rng);
  const std::vector<double> w = Gaussians(kOut * kIn, &rng);
  const std::vector<double> bias = Gaussians(kOut, &rng);
  std::vector<std::vector<double>> packed(tables.size());
  for (std::size_t t = 0; t < tables.size(); ++t) {
    packed[t].resize(SimdPackedCount(*tables[t], kIn, kOut));
  }
  std::vector<double> y(kRows * kOut), mask(kRows * kOut);
  SimdEpilogue ep;
  ep.scale = 0.8;
  ep.bias = bias.data();
  ep.act = GemmAct::kReluTrain;
  ep.relu_mask = mask.data();
  std::vector<double> best(tables.size(),
                           std::numeric_limits<double>::infinity());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t t = 0; t < tables.size(); ++t) {
      Timer timer;
      tables[t]->pack_bt(w.data(), kOut, kIn, packed[t].data());
      tables[t]->matmul_bt_rows(x.data(), packed[t].data(), y.data(), 0,
                                kRows, kOut, kIn, ep);
      best[t] = std::min(best[t], timer.ElapsedSeconds());
    }
  }
  ExpectNoSlowerThanGeneric(tables, best,
                            "fused dense forward 64x12 -> 48 (ReLU)");
}

// The MLP weight-gradient GEMMs of one 64-row NYSF training step,
// c = dy^T h: dy(64x48)^T x(64x12) and dy(64x16)^T h(64x48). Timed as
// MatMulAtInto runs them, packing included. n = 12 is narrower than the
// avx512 panel, so this is where a scalar column tail would show.
TEST(SimdTierSpeed, MatMulAtColsNoSlowerThanGeneric) {
  const std::vector<const SimdKernels*> tables = SupportedTables();
  if (tables.size() < 2) GTEST_SKIP() << "no wide tier on this host";
  struct Shape {
    std::size_t m, ac, n;
  };
  constexpr int kReps = 2000;
  Rng rng(19);
  for (const Shape& s : {Shape{64, 48, 12}, Shape{64, 16, 48}}) {
    const std::vector<double> a = Gaussians(s.m * s.ac, &rng);
    const std::vector<double> b = Gaussians(s.m * s.n, &rng);
    std::vector<std::vector<double>> packed(tables.size());
    for (std::size_t t = 0; t < tables.size(); ++t) {
      packed[t].resize(SimdPackedCount(*tables[t], s.m, s.n));
    }
    std::vector<double> c(s.ac * s.n);
    std::vector<double> best(tables.size(),
                             std::numeric_limits<double>::infinity());
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t t = 0; t < tables.size(); ++t) {
        Timer timer;
        tables[t]->pack_b(b.data(), s.m, s.n, packed[t].data());
        tables[t]->matmul_at_cols(a.data(), s.ac, packed[t].data(),
                                  c.data(), s.m, s.n, 0, s.ac,
                                  SimdEpilogue{});
        best[t] = std::min(best[t], timer.ElapsedSeconds());
      }
    }
    const std::string what = "matmul_at_cols (" + std::to_string(s.m) +
                             "x" + std::to_string(s.ac) + ")^T * " +
                             std::to_string(s.m) + "x" +
                             std::to_string(s.n);
    ExpectNoSlowerThanGeneric(tables, best, what.c_str());
  }
}

}  // namespace
}  // namespace faction
