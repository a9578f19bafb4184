#ifndef FACTION_TENSOR_SIMD_H_
#define FACTION_TENSOR_SIMD_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace faction {

/// Vector instruction tiers the SIMD compute layer can dispatch to. Every
/// tier computes bitwise-identical results (see simd_kernels.inc): the
/// kernels vectorize only across independent output elements, so the lane
/// width never changes any element's accumulation order. kGeneric is
/// plain 128-bit (SSE2-era) code compiled without extra -m flags and is
/// always available; the wider tiers are compiled into dedicated
/// translation units and selected at runtime via cpuid.
enum class SimdLevel : int {
  kGeneric = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Function-pointer table of the level-specialized kernels. One table per
/// compiled tier; ActiveSimd() returns the dispatched one. All kernels are
/// deterministic for any thread count and bitwise-identical across levels.
///
/// Packed-GEMM layout: B (kk x n, row-major) is packed into ceil(n/n_tile)
/// contiguous panels; panel t holds columns [t*n_tile, (t+1)*n_tile) in
/// k-major order with the ragged last panel zero-padded. Padded lanes are
/// computed but never stored, so they cannot affect results.
struct SimdKernels {
  SimdLevel level;
  const char* name;     ///< "generic" | "avx2" | "avx512"
  std::size_t lanes;    ///< doubles per vector register
  std::size_t n_tile;   ///< packed panel width in columns (2 * lanes)

  /// Packs b (kk x n row-major) into zero-padded k-major panels.
  void (*pack_b)(const double* b, std::size_t kk, std::size_t n, double* bp);
  /// Packs b (bn x kk row-major) as b^T panels: panel t row k holds
  /// b[t*n_tile + j][k] for j in [0, n_tile), zero-padded.
  void (*pack_bt)(const double* b, std::size_t bn, std::size_t kk,
                  double* bp);
  /// Rows [r0, r1) of c = a * b from packed panels. Per output element the
  /// k order is the blocked reference's: ascending 4-wide quads combined
  /// (a0*b0 + a1*b1) + (a2*b2 + a3*b3), then a scalar tail.
  void (*matmul_rows)(const double* a, const double* bp, double* c,
                      std::size_t r0, std::size_t r1, std::size_t n,
                      std::size_t kk);
  /// Rows [r0, r1) of c = a * b^T from pack_bt panels. Per element: four
  /// quad partial sums combined (s0+s1)+(s2+s3), then a scalar tail.
  void (*matmul_bt_rows)(const double* a, const double* btp, double* c,
                         std::size_t r0, std::size_t r1, std::size_t bn,
                         std::size_t kk);
  /// Output rows [c0, c1) of c = a^T * b (a is m x ac) from pack_b panels
  /// of b (m x n). Per element: single mul-add per ascending k from zero.
  void (*matmul_at_cols)(const double* a, std::size_t ac, const double* bp,
                         double* c, std::size_t m, std::size_t n,
                         std::size_t c0, std::size_t c1);
  /// y (oc x ohw) = w (oc x patch) @ col (patch x ohw) + bias broadcast.
  /// Per element: acc = bias, then single mul-add per ascending k — the
  /// naive conv kernel's order.
  void (*conv_forward)(const double* w, const double* col,
                       const double* bias, double* y, std::size_t oc,
                       std::size_t patch, std::size_t ohw);
  /// y[i] += a * x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// x[i] /= s (kept as a division — not a reciprocal multiply — to match
  /// the scalar reference bitwise).
  void (*divide)(double* x, std::size_t n, double s);
  /// max over x[0..n), n >= 1. Value-equal to the sequential std::max scan
  /// (may differ only in the sign of a +-0.0 result; see simd_kernels.inc
  /// for why that cannot reach any observable output).
  double (*row_max)(const double* x, std::size_t n);
  /// Blocked lower-triangular forward solve + Mahalanobis term for a
  /// dim-major block ys (d x width): in-place L y = c per sample column,
  /// then out[t] = -0.5 * (base + sum_j ys[j][t]^2). Per sample this is
  /// the exact operation order of Gaussian::ForwardSolve.
  void (*logpdf_block)(const double* chol, std::size_t d, double* ys,
                       std::size_t width, double base, double* out);
  /// Blocked lower-triangular forward solve + squared norm for a dim-major
  /// block vs (d x width): in-place L p = v per guard-vector column, then
  /// pnorm2[t] = sum_j vs[j][t]^2 in ascending j. The first half of a
  /// rank-1 Cholesky downdate: the norm drives the positive-definiteness
  /// guard (Gaussian::DowndateOne), so the cross-tier bitwise contract is
  /// load-bearing — the guard's *branch* must be identical at every tier.
  void (*downdate_solve)(const double* chol, std::size_t d, double* vs,
                         std::size_t width, double* pnorm2);
};

/// Number of doubles a pack_b/pack_bt destination buffer must hold.
inline std::size_t SimdPackedCount(const SimdKernels& k, std::size_t kk,
                                   std::size_t n) {
  const std::size_t tiles = (n + k.n_tile - 1) / k.n_tile;
  return tiles * kk * k.n_tile;
}

/// The dispatched kernel table. First call resolves the level: the
/// FACTION_SIMD_LEVEL environment variable ("generic", "avx2", "avx512",
/// or "native") when set and supported, otherwise the widest tier this
/// binary and CPU support. Unsupported requests log a warning and fall
/// back to the widest supported tier. Thread-safe; the resolved table is
/// cached until SetSimdLevel overrides it.
const SimdKernels& ActiveSimd();

/// Level of the table ActiveSimd() currently returns.
SimdLevel ActiveSimdLevel();

/// "generic" / "avx2" / "avx512".
const char* SimdLevelName(SimdLevel level);

/// True when the tier is both compiled into this binary and supported by
/// the running CPU. kGeneric is always supported.
bool SimdLevelSupported(SimdLevel level);

/// Parses a FACTION_SIMD_LEVEL value. "native" maps to the widest tier the
/// binary and CPU support; unknown strings are an InvalidArgument error.
Result<SimdLevel> ParseSimdLevel(const std::string& value);

/// Re-dispatches to an explicit tier (parity tests, per-level benchmarks).
/// InvalidArgument when the tier is not supported on this host.
Status SetSimdLevel(SimdLevel level);

/// Records the dispatched tier in the telemetry registry (gauge
/// "simd.dispatch_level" plus a counter named after the tier). Call sites
/// that start a run (OnlineLearner, faction_cli) publish once so the
/// "## Telemetry" report shows which kernels executed.
void PublishSimdTelemetry();

}  // namespace faction

#endif  // FACTION_TENSOR_SIMD_H_
