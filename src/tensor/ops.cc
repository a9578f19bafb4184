// FACTION_HOT: the GEMM/softmax entry points back every training step and
// ban-guarded scoring region; allocating idioms here are lint findings
// (tools/lint.py no-alloc-in-hot, DESIGN.md §13). The *Into variants write
// through caller-owned buffers; the value-returning wrappers are the
// convenience API and sit inside FACTION_COLD fences.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "tensor/simd.h"

namespace faction {

namespace {

constexpr std::size_t kGemmKBlock = 64;  // k panel kept hot across rows
constexpr std::size_t kTransposeTile = 32;

// The *Into ops hand out caller-owned buffers; writing through an aliased
// output would corrupt the inputs mid-kernel, so the overlap is a
// programmer error checked at entry.
inline void CheckNoAlias(const Matrix& in, const Matrix* out) {
  FACTION_CHECK(&in != out);
}

// Per-thread panel-packing scratch for the SIMD GEMM entry points. The
// buffer keeps its capacity, so steady-state GEMMs allocate nothing;
// per-thread because serve workers run GEMMs for different sessions at
// once.
std::vector<double>& PackScratch() {
  static thread_local std::vector<double> scratch;  // lint-allow(no-alloc-in-hot): per-thread warmup only
  return scratch;
}

// Packs a GEMM's b operand into the scratch with `pack` (kern.pack_b or
// kern.pack_bt, kk x n panels) and counts the call.
template <typename Pack>
const double* PackForGemm(const SimdKernels& kern, std::size_t kk,
                          std::size_t n, Pack pack) {
  std::vector<double>& bp = PackScratch();
  bp.resize(SimdPackedCount(kern, kk, n));
  pack(bp.data());
  TelemetryCount("simd.gemm_calls");
  TelemetryCount("simd.packed_bytes", bp.size() * sizeof(double));
  return bp.data();
}

// Lowers a shape-checked epilogue to the kernels' raw form for `out`.
SimdEpilogue Lower(const GemmEpilogue& ep, const Matrix* out) {
  SimdEpilogue low;
  low.scale = ep.scale;
  low.act = ep.act;
  if (ep.bias != nullptr) {
    FACTION_CHECK_EQ(ep.bias->rows(), std::size_t{1});
    FACTION_CHECK_EQ(ep.bias->cols(), out->cols());
    low.bias = ep.bias->data();
  }
  if (ep.act == GemmAct::kReluTrain) {
    FACTION_CHECK(ep.relu_mask != nullptr && ep.relu_mask != out);
    ep.relu_mask->ResizeForOverwrite(out->rows(), out->cols());
    low.relu_mask = ep.relu_mask->data();
  } else if (ep.act == GemmAct::kMask) {
    FACTION_CHECK(ep.grad_mask != nullptr);
    FACTION_CHECK_SAME_SHAPE(*ep.grad_mask, *out);
    low.grad_mask = ep.grad_mask->data();
  }
  return low;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulInto(a, b, &out);
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const GemmEpilogue& ep) {
  FACTION_CHECK_EQ(a.cols(), b.rows());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  FACTION_CHECK(ep.bias == nullptr && ep.act != GemmAct::kReluTrain &&
                ep.act != GemmAct::kReluInference);
  out->ResizeForOverwrite(a.rows(), b.cols());  // kernel assigns every element
  const SimdEpilogue low = Lower(ep, out);
  const std::size_t kk = a.cols();
  const std::size_t nn = b.cols();
  if (out->size() == 0) return;
  // Register-blocked micro-kernel over k-major packed panels of b; the
  // per-element k order matches the retained blocked reference exactly
  // (ascending 4-wide quads + scalar tail — the reference's 64-wide k
  // blocks are 4-aligned, so its global pattern is the same flat one).
  const SimdKernels& kern = ActiveSimd();
  const double* bpp = PackForGemm(kern, kk, nn, [&](double* bp) {
    kern.pack_b(b.data(), kk, nn, bp);
  });
  TelemetryObserve("simd.gemm_flops",
                   2.0 * static_cast<double>(a.rows()) *
                       static_cast<double>(nn) * static_cast<double>(kk));
  kern.matmul_rows(a.data(), bpp, out->data(), 0, a.rows(), nn, kk, low);
}

void ReferenceMatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  FACTION_CHECK_EQ(a.cols(), b.rows());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  out->Resize(a.rows(), b.cols());  // kernel accumulates: needs zeros
  const std::size_t kk = a.cols();
  const std::size_t nn = b.cols();
  // Cache-blocked ikj kernel: the k accumulation order is fixed by the
  // block size and the 4-wide unroll. The inner loop is a dense 4-row
  // axpy — no zero-skip branch (it mispredicts on dense data).
  for (std::size_t k0 = 0; k0 < kk; k0 += kGemmKBlock) {
    const std::size_t k1 = std::min(kk, k0 + kGemmKBlock);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double* arow = a.row_data(i);
      double* orow = out->row_data(i);
      std::size_t k = k0;
      for (; k + 4 <= k1; k += 4) {
        const double a0 = arow[k];
        const double a1 = arow[k + 1];
        const double a2 = arow[k + 2];
        const double a3 = arow[k + 3];
        const double* b0 = b.row_data(k);
        const double* b1 = b.row_data(k + 1);
        const double* b2 = b.row_data(k + 2);
        const double* b3 = b.row_data(k + 3);
        for (std::size_t j = 0; j < nn; ++j) {
          orow[j] += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
        }
      }
      for (; k < k1; ++k) {
        const double ak = arow[k];
        const double* brow = b.row_data(k);
        for (std::size_t j = 0; j < nn; ++j) orow[j] += ak * brow[j];
      }
    }
  }
}

Matrix MatMulBt(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulBtInto(a, b, &out);
  return out;
}

void MatMulBtInto(const Matrix& a, const Matrix& b, Matrix* out,
                  const GemmEpilogue& ep) {
  FACTION_CHECK_EQ(a.cols(), b.cols());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  FACTION_CHECK(ep.act != GemmAct::kMask);
  out->ResizeForOverwrite(a.rows(), b.rows());  // every element assigned
  const SimdEpilogue low = Lower(ep, out);
  const std::size_t kk = a.cols();
  const std::size_t bn = b.rows();
  if (out->size() == 0) return;
  const SimdKernels& kern = ActiveSimd();
  if (bn <= kern.narrow_max) {
    // b is read in place: nothing to pack.
    TelemetryCount("simd.gemm_calls");
    kern.matmul_bt_narrow_rows(a.data(), b.data(), out->data(), 0, a.rows(),
                               bn, kk, low);
    return;
  }
  const double* bpp = PackForGemm(kern, kk, bn, [&](double* bp) {
    kern.pack_bt(b.data(), bn, kk, bp);
  });
  kern.matmul_bt_rows(a.data(), bpp, out->data(), 0, a.rows(), bn, kk, low);
}

void ReferenceMatMulBtInto(const Matrix& a, const Matrix& b, Matrix* out) {
  FACTION_CHECK_EQ(a.cols(), b.cols());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  out->ResizeForOverwrite(a.rows(), b.rows());  // every element assigned
  const std::size_t kk = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* orow = out->row_data(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_data(j);
      // Four partial dot products combined in a fixed order.
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      std::size_t k = 0;
      for (; k + 4 <= kk; k += 4) {
        s0 += arow[k] * brow[k];
        s1 += arow[k + 1] * brow[k + 1];
        s2 += arow[k + 2] * brow[k + 2];
        s3 += arow[k + 3] * brow[k + 3];
      }
      double acc = (s0 + s1) + (s2 + s3);
      for (; k < kk; ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

Matrix MatMulAt(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulAtInto(a, b, &out);
  return out;
}

namespace {

// c = a^T * b into an *out already shaped a.cols() x b.cols(), finished by
// the epilogue `ep` (plain store or accumulate).
void MatMulAtWithEpilogue(const Matrix& a, const Matrix& b,
                          const SimdEpilogue& ep, Matrix* out) {
  const std::size_t mm = a.rows();
  const std::size_t nn = b.cols();
  if (out->size() == 0) return;
  // b goes through the same zero-padded panels as MatMul, so a column
  // count that is not a multiple of the panel width (d = 12 at every tier
  // wider than generic) still runs full vectors; per element the order is
  // a single mul-add per ascending k from zero, as in the reference.
  const SimdKernels& kern = ActiveSimd();
  const double* bpp = PackForGemm(kern, mm, nn, [&](double* bp) {
    kern.pack_b(b.data(), mm, nn, bp);
  });
  kern.matmul_at_cols(a.data(), a.cols(), bpp, out->data(), mm, nn, 0,
                      a.cols(), ep);
}

}  // namespace

void MatMulAtInto(const Matrix& a, const Matrix& b, Matrix* out) {
  FACTION_CHECK_EQ(a.rows(), b.rows());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  out->ResizeForOverwrite(a.cols(), b.cols());  // kernel assigns every element
  MatMulAtWithEpilogue(a, b, SimdEpilogue{}, out);
}

void MatMulAtAccumulateInto(const Matrix& a, const Matrix& b, double scale,
                            Matrix* out) {
  FACTION_CHECK_EQ(a.rows(), b.rows());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  FACTION_CHECK_EQ(out->rows(), a.cols());
  FACTION_CHECK_EQ(out->cols(), b.cols());
  SimdEpilogue ep;
  ep.scale = scale;
  ep.accumulate = true;
  MatMulAtWithEpilogue(a, b, ep, out);
}

void ReferenceMatMulAtInto(const Matrix& a, const Matrix& b, Matrix* out) {
  FACTION_CHECK_EQ(a.rows(), b.rows());
  CheckNoAlias(a, out);
  CheckNoAlias(b, out);
  out->Resize(a.cols(), b.cols());  // kernel accumulates: needs zeros
  const std::size_t mm = a.rows();
  const std::size_t nn = b.cols();
  // Every out element sees one mul-add per ascending k. Dense inner loop,
  // no zero-skip branch.
  for (std::size_t k = 0; k < mm; ++k) {
    const double* arow = a.row_data(k);
    const double* brow = b.row_data(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      double* orow = out->row_data(i);
      for (std::size_t j = 0; j < nn; ++j) orow[j] += aki * brow[j];
    }
  }
}

Matrix Transpose(const Matrix& m) {
  Matrix out;
  TransposeInto(m, &out);
  return out;
}

void TransposeInto(const Matrix& m, Matrix* out) {
  CheckNoAlias(m, out);
  out->ResizeForOverwrite(m.cols(), m.rows());
  const std::size_t rows = m.rows();
  double* dst = out->data();
  // Tiled transpose over output row panels. Raw row-pointer writes: the
  // per-element bounds DCHECKs of operator() are hoisted into the shape
  // setup above.
  for (std::size_t c0 = 0; c0 < m.cols(); c0 += kTransposeTile) {
    const std::size_t c1 = std::min(m.cols(), c0 + kTransposeTile);
    for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
      const std::size_t i1 = std::min(rows, i0 + kTransposeTile);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* row = m.row_data(i);
        for (std::size_t j = c0; j < c1; ++j) dst[j * rows + i] = row[j];
      }
    }
  }
}

Matrix Add(const Matrix& a, const Matrix& b) {
  FACTION_CHECK_SAME_SHAPE(a, b);
  Matrix out = a;
  double* dst = out.data();
  const double* src = b.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] += src[i];
  return out;
}

Matrix Scale(const Matrix& m, double s) {
  Matrix out = m;
  double* dst = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) dst[i] *= s;
  return out;
}

// FACTION_COLD_BEGIN: value-returning convenience wrapper.
std::vector<double> ColSums(const Matrix& m) {
  std::vector<double> out;
  ColSumsInto(m, &out);
  return out;
}
// FACTION_COLD_END

void ColSumsInto(const Matrix& m, std::vector<double>* out) {
  out->assign(m.cols(), 0.0);
  // Each column's sum accumulates in ascending row order.
  double* sums = out->data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* r = m.row_data(i);
    for (std::size_t j = 0; j < m.cols(); ++j) sums[j] += r[j];
  }
}

double FrobeniusNorm2(const Matrix& m) {
  double acc = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) acc += m.data()[i] * m.data()[i];
  return acc;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  FACTION_CHECK_SAME_SHAPE(a, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  FACTION_CHECK_LEN(b, a.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  FACTION_CHECK_LEN(b, a.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

namespace {

// Sequential std::max scan of a row: the softmax family's shift.
inline double RowMax(const double* r, std::size_t c) {
  double mx = r[0];
  for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, r[j]);
  return mx;
}

// out = exp(r - max(r)) per row: one shift pass, then one vexp call over
// the whole matrix.
void SoftmaxNumeratorsInto(const Matrix& logits, Matrix* out) {
  CheckNoAlias(logits, out);
  const std::size_t c = logits.cols();
  FACTION_CHECK(c > 0 || logits.rows() == 0);
  out->ResizeForOverwrite(logits.rows(), c);
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const double* r = logits.row_data(i);
    double* e = out->row_data(i);
    const double mx = RowMax(r, c);
    for (std::size_t j = 0; j < c; ++j) e[j] = r[j] - mx;
  }
  ActiveSimd().vexp(out->data(), out->data(), out->size());
}

}  // namespace

// The softmax family computes e = exp(r - mx), sum = the ascending sum of
// e, softmax = e / sum and lse = mx + log(sum), log-softmax = r - lse,
// row by row as scalar code would, but each exp and log goes through the
// SIMD layer's vexp/vlog over the whole batch at once. Those kernels give
// every element the same bits at every tier, so the family's results do
// not depend on the tier or on the host's libm (DESIGN.md §12
// "Transcendentals").
Matrix SoftmaxRows(const Matrix& logits) {
  Matrix out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const Matrix& logits, Matrix* out) {
  SoftmaxNumeratorsInto(logits, out);
  for (std::size_t i = 0; i < out->rows(); ++i) {
    double* e = out->row_data(i);
    double sum = 0.0;
    for (std::size_t j = 0; j < out->cols(); ++j) sum += e[j];
    for (std::size_t j = 0; j < out->cols(); ++j) e[j] /= sum;
  }
}

Matrix LogSoftmaxRows(const Matrix& logits) {
  Matrix out;
  LogSoftmaxRowsInto(logits, &out);
  return out;
}

void LogSoftmaxRowsInto(const Matrix& logits, Matrix* out, Matrix* softmax) {
  CheckNoAlias(logits, out);
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  Matrix* e = softmax != nullptr ? softmax : out;
  FACTION_CHECK(softmax != out);
  SoftmaxNumeratorsInto(logits, e);
  out->ResizeForOverwrite(n, c);
  // Row i's sum goes to out[i], at or before row i's first element, so
  // when e is out no unread exponential is overwritten.
  double* sums = out->data();
  for (std::size_t i = 0; i < n; ++i) {
    double* er = e->row_data(i);
    double sum = 0.0;
    for (std::size_t j = 0; j < c; ++j) sum += er[j];
    if (softmax != nullptr) {
      for (std::size_t j = 0; j < c; ++j) er[j] /= sum;
    }
    sums[i] = sum;
  }
  ActiveSimd().vlog(sums, sums, n);
  // In descending rows, row i's outputs overwrite only the logs of rows
  // at or after i, and its own log is read first.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* r = logits.row_data(i);
    const double lse = RowMax(r, c) + sums[i];
    double* o = out->row_data(i);
    for (std::size_t j = 0; j < c; ++j) o[j] = r[j] - lse;
  }
}

double LogSumExp(const std::vector<double>& xs) {
  FACTION_CHECK(!xs.empty());
  double mx = xs[0];
  for (double x : xs) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - mx);
  return mx + std::log(sum);
}

}  // namespace faction
