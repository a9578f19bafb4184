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

/// Per-element step a GEMM kernel applies after scale and bias (see
/// SimdEpilogue). The two ReLU forms keep the element loops they replace
/// bit for bit: the training form tests `0 < v`, so NaN, -0.0 and
/// negatives all become +0.0 with a 0.0 mask; the inference form tests
/// `v < 0`, so NaN and -0.0 pass through.
enum class GemmAct : int {
  kNone = 0,
  kReluTrain = 1,      ///< mask = 0 < v ? 1.0 : 0.0; v = 0 < v ? v : +0.0
  kReluInference = 2,  ///< v = v < 0 ? +0.0 : v
  kMask = 3,           ///< v = v * mask (a ReLU backward)
};

/// Epilogue the GEMM kernels apply to each accumulated element `acc` of
/// output (i, j) before the single store, as separate rounded operations
/// (no FMA), each skipped when unset:
///   v = acc; v = v * scale when scale != 1; v = v + bias[j]; then act.
/// Masks are row-major with the output's row stride. With `accumulate`
/// the kernel instead stores c = c + v (matmul_at_cols only; bias and act
/// unused). The default epilogue stores acc unchanged.
struct SimdEpilogue {
  double scale = 1.0;
  const double* bias = nullptr;
  GemmAct act = GemmAct::kNone;
  double* relu_mask = nullptr;        ///< written by kReluTrain
  const double* grad_mask = nullptr;  ///< read by kMask
  bool accumulate = false;
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
  /// Then the epilogue (scale and act only).
  void (*matmul_rows)(const double* a, const double* bp, double* c,
                      std::size_t r0, std::size_t r1, std::size_t n,
                      std::size_t kk, const SimdEpilogue& ep);
  /// Rows [r0, r1) of c = a * b^T from pack_bt panels. Per element: four
  /// quad partial sums combined (s0+s1)+(s2+s3), then a scalar tail, then
  /// the epilogue.
  void (*matmul_bt_rows)(const double* a, const double* btp, double* c,
                         std::size_t r0, std::size_t r1, std::size_t bn,
                         std::size_t kk, const SimdEpilogue& ep);
  /// matmul_bt_rows for outputs narrower than a panel (bn <= narrow_max),
  /// reading b (bn x kk row-major) unpacked. The four partial sums of an
  /// element sit in the four lanes of one vector over consecutive k, so
  /// the per-element order is matmul_bt_rows' exactly.
  void (*matmul_bt_narrow_rows)(const double* a, const double* b, double* c,
                                std::size_t r0, std::size_t r1,
                                std::size_t bn, std::size_t kk,
                                const SimdEpilogue& ep);
  /// Widest output the narrow kernel is dispatched for.
  std::size_t narrow_max;
  /// Output rows [c0, c1) of c = a^T * b (a is m x ac) from pack_b panels
  /// of b (m x n). Per element: single mul-add per ascending k from zero,
  /// then the epilogue (scale and accumulate only).
  void (*matmul_at_cols)(const double* a, std::size_t ac, const double* bp,
                         double* c, std::size_t m, std::size_t n,
                         std::size_t c0, std::size_t c1,
                         const SimdEpilogue& ep);
  /// y (oc x ohw) = w (oc x patch) @ col (patch x ohw) + bias broadcast.
  /// Per element: acc = bias, then single mul-add per ascending k — the
  /// naive conv kernel's order.
  void (*conv_forward)(const double* w, const double* col,
                       const double* bias, double* y, std::size_t oc,
                       std::size_t patch, std::size_t ohw);
  /// y[i] += a * x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
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
