#ifndef FACTION_TENSOR_LINALG_H_
#define FACTION_TENSOR_LINALG_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace faction {

/// Cholesky factor L (lower triangular, A = L L^T) of a symmetric
/// positive-definite matrix. Fails with NumericalError when A is not SPD
/// within tolerance.
// lint-allow(test-only-api): value form of CholeskyInto, the factor oracle
Result<Matrix> Cholesky(const Matrix& a);

/// As Cholesky, writing the factor into *l (resized to n x n; capacity is
/// retained so refactorizations of a warm buffer allocate nothing).
/// Bitwise-identical to Cholesky: same elimination order, same pivots.
Status CholeskyInto(const Matrix& a, Matrix* l);

/// Solves L y = b for lower-triangular L (forward substitution).
std::vector<double> ForwardSolve(const Matrix& lower,
                                 const std::vector<double>& b);

/// Solves L^T x = y for lower-triangular L (back substitution on the
/// transpose).
std::vector<double> BackSolveTranspose(const Matrix& lower,
                                       const std::vector<double>& y);

/// Solves A x = b given the Cholesky factor of SPD A.
// lint-allow(test-only-api): solve oracle for factor and downdate tests
std::vector<double> CholeskySolve(const Matrix& lower,
                                  const std::vector<double>& b);

/// log(det(A)) from the Cholesky factor: 2 * sum(log(L_ii)).
double LogDetFromCholesky(const Matrix& lower);

/// Rank-1 Cholesky update: given lower-triangular L with A = L L^T,
/// rewrites L in place so that L L^T = A + v v^T. O(n^2) Givens-style
/// sweep (ascending column k, then ascending row i within the column — a
/// fixed scalar operation order, so results are bitwise identical across
/// builds and thread counts). `v` (length n) is clobbered. Cannot fail:
/// adding v v^T keeps A positive definite.
void CholeskyRank1UpdateInPlace(Matrix* l, double* v, std::size_t n);

/// Rank-1 Cholesky downdate: rewrites L in place so that L L^T = A - v v^T,
/// via the LINPACK-style hyperbolic sweep (same fixed operation order as
/// the update). Fails with NumericalError when A - v v^T is not positive
/// definite within tolerance — a pivot would go non-positive. On failure L
/// is partially mutated and must be refactored by the caller. `v` (length
/// n) is clobbered.
Status CholeskyRank1DowndateInPlace(Matrix* l, double* v, std::size_t n);

/// Result of a power-iteration estimate of the largest singular value.
struct SpectralEstimate {
  double sigma = 0.0;            ///< estimated largest singular value
  std::vector<double> u;         ///< left singular vector estimate
  std::vector<double> v;         ///< right singular vector estimate
};

/// Estimates the spectral norm (largest singular value) of `w` by power
/// iteration, warm-started from `u0` when its size matches w.rows(). This is
/// the primitive behind spectral normalization in the feature extractor
/// (Miyato et al., as adopted by the paper's DDU-style backbone).
// lint-allow(test-only-api): value form of PowerIterationInto, the sigma oracle
SpectralEstimate PowerIteration(const Matrix& w, const std::vector<double>& u0,
                                int iters, Rng* rng);

/// Allocation-free PowerIteration: est->u/est->v double as the working
/// buffers. Warm-starts from est->u when its size matches w.rows()
/// (otherwise fills it from `rng`), so a persistent SpectralEstimate gives
/// the classic spectral-normalization warm restart without per-call heap
/// traffic. Identical arithmetic to PowerIteration.
void PowerIterationInto(const Matrix& w, int iters, Rng* rng,
                        SpectralEstimate* est);

}  // namespace faction

#endif  // FACTION_TENSOR_LINALG_H_
