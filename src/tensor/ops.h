#ifndef FACTION_TENSOR_OPS_H_
#define FACTION_TENSOR_OPS_H_

#include <vector>

#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace faction {

/// Per-element epilogue of a fused dense-layer GEMM (SimdEpilogue in
/// tensor/simd.h, over shape-checked matrices). Applied to every output
/// element before its single store, as separate rounded operations:
/// v = acc; v *= scale when scale != 1; v += bias(0, j); then `act`. The
/// default epilogue stores the plain product.
struct GemmEpilogue {
  double scale = 1.0;
  const Matrix* bias = nullptr;  ///< 1 x out cols, or none
  GemmAct act = GemmAct::kNone;
  /// kReluTrain: resized to the output's shape and written, 1.0 where the
  /// activation passed and 0.0 elsewhere.
  Matrix* relu_mask = nullptr;
  /// kMask: the multiplier, the output's shape.
  const Matrix* grad_mask = nullptr;
};

/// Matrix product a*b. Precondition: a.cols() == b.rows().
///
/// The GEMM-shaped ops (MatMul/MatMulBt/MatMulAt) run as register-blocked,
/// panel-packed SIMD micro-kernels (tensor/simd.h), one kernel call over
/// all rows on the calling thread; Transpose and the rowwise/elementwise
/// ops run as cache-blocked serial loops. Results are bitwise identical at
/// any SIMD dispatch level: every output element's k-accumulation order is
/// fixed by the problem shape alone (see DESIGN.md §12).
///
/// Each GEMM/rowwise op also has an *Into output-parameter variant that
/// writes into a caller-owned Matrix (resized as needed, capacity
/// retained). These are the allocation-free hot-path entry points used with
/// Workspace buffers (common/workspace.h); the value-returning forms are
/// thin wrappers and numerically identical. `out` must not alias an input.
///
/// MatMulInto and MatMulBtInto take an optional epilogue: scale and kMask
/// for MatMul (a dense layer's input gradient), scale, bias and either
/// ReLU for MatMulBt (a dense layer's forward). MatMulBt outputs at most a
/// quarter of a SIMD panel wide take a narrow kernel with the same
/// per-element order.
Matrix MatMul(const Matrix& a, const Matrix& b);
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const GemmEpilogue& ep = {});

/// a * b^T without materializing the transpose.
// lint-allow(test-only-api): value-form GEMM oracle over the Into kernels
Matrix MatMulBt(const Matrix& a, const Matrix& b);
void MatMulBtInto(const Matrix& a, const Matrix& b, Matrix* out,
                  const GemmEpilogue& ep = {});

/// a^T * b without materializing the transpose.
// lint-allow(test-only-api): value-form GEMM oracle over the Into kernels
Matrix MatMulAt(const Matrix& a, const Matrix& b);
void MatMulAtInto(const Matrix& a, const Matrix& b, Matrix* out);

/// *out += scale * (a^T * b), per element out + scale*acc (the multiply
/// skipped when scale is 1): a weight-gradient accumulation with no
/// temporary. *out must already be a.cols() x b.cols().
void MatMulAtAccumulateInto(const Matrix& a, const Matrix& b, double scale,
                            Matrix* out);

/// Retained pre-SIMD blocked kernels: the bitwise parity oracles the SIMD
/// micro-kernels are tested against (tests/simd_test.cc). Same contracts
/// as the dispatched entry points; not for production call sites.
// lint-allow(test-only-api): blocked reference, the SIMD GEMM oracle
void ReferenceMatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
// lint-allow(test-only-api): blocked reference, the SIMD GEMM oracle
void ReferenceMatMulBtInto(const Matrix& a, const Matrix& b, Matrix* out);
// lint-allow(test-only-api): blocked reference, the SIMD GEMM oracle
void ReferenceMatMulAtInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Transpose.
// lint-allow(test-only-api): value form of TransposeInto; tests compare with it
Matrix Transpose(const Matrix& m);
void TransposeInto(const Matrix& m, Matrix* out);

/// Elementwise sum. Shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);

/// Scalar multiple.
// lint-allow(test-only-api): value form; tests build scaled fixtures with it
Matrix Scale(const Matrix& m, double s);

/// Column-wise sums: returns a vector of length m.cols().
// lint-allow(test-only-api): value form of ColSumsInto; tests compare with it
std::vector<double> ColSums(const Matrix& m);
void ColSumsInto(const Matrix& m, std::vector<double>* out);

/// Sum of squares of all elements (squared Frobenius norm).
// lint-allow(test-only-api): comparison metric for tests
double FrobeniusNorm2(const Matrix& m);

/// Max |a - b| over matching elements; used heavily in tests.
// lint-allow(test-only-api): comparison metric for tests
double MaxAbsDiff(const Matrix& a, const Matrix& b);

/// Dot product of equal-length vectors.
// lint-allow(test-only-api): vector assertions; pins CHECK_LEN in check_test
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm of a vector.
// lint-allow(test-only-api): comparison metric for tests
double Norm2(const std::vector<double>& v);

/// Squared Euclidean distance between equal-length vectors.
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b);

/// Row-wise softmax of a logits matrix (numerically stable): per row
/// e = exp(r - max(r)), then e / (ascending sum of e). The exponentials run
/// through the dispatched SimdKernels::vexp over the whole matrix, so the
/// result is bitwise the same at every SIMD tier (DESIGN.md §12
/// "Transcendentals").
Matrix SoftmaxRows(const Matrix& logits);
void SoftmaxRowsInto(const Matrix& logits, Matrix* out);

/// Row-wise log-softmax of a logits matrix (numerically stable): per row
/// r - (max(r) + log(ascending sum of exp(r - max(r)))), through vexp and
/// vlog as SoftmaxRowsInto. With a `softmax` matrix (not aliasing logits
/// or out) it also writes the row softmax formed from the same
/// exponentials, bitwise SoftmaxRowsInto's result. No scratch beyond out
/// and softmax.
Matrix LogSoftmaxRows(const Matrix& logits);
void LogSoftmaxRowsInto(const Matrix& logits, Matrix* out,
                        Matrix* softmax = nullptr);

/// log(sum(exp(xs))) computed stably with libm; xs must be non-empty.
// lint-allow(test-only-api): libm reference for the mixture sweep's combines
double LogSumExp(const std::vector<double>& xs);

}  // namespace faction

#endif  // FACTION_TENSOR_OPS_H_
