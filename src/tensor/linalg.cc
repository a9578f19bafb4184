#include "tensor/linalg.h"

#include <cmath>

#include "common/check.h"

namespace faction {

Status CholeskyInto(const Matrix& a, Matrix* l) {
  FACTION_CHECK(l != nullptr);
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  // Resize zero-fills while retaining capacity: the strict upper triangle
  // stays zero exactly as in the freshly constructed Matrix of Cholesky().
  l->Resize(n, n);
  Matrix& lo = *l;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= lo(i, k) * lo(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::NumericalError(
              "matrix is not positive definite (pivot " +
              std::to_string(sum) + " at " + std::to_string(i) + ")");
        }
        lo(i, j) = std::sqrt(sum);
      } else {
        lo(i, j) = sum / lo(j, j);
      }
    }
  }
  return Status::Ok();
}

Result<Matrix> Cholesky(const Matrix& a) {
  Matrix l;
  FACTION_RETURN_IF_ERROR(CholeskyInto(a, &l));
  return l;
}

std::vector<double> ForwardSolve(const Matrix& lower,
                                 const std::vector<double>& b) {
  const std::size_t n = lower.rows();
  FACTION_DCHECK_EQ(lower.cols(), n);
  FACTION_CHECK_LEN(b, n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    const double* row = lower.row_data(i);
    for (std::size_t k = 0; k < i; ++k) sum -= row[k] * y[k];
    y[i] = sum / row[i];
  }
  return y;
}

std::vector<double> BackSolveTranspose(const Matrix& lower,
                                       const std::vector<double>& y) {
  const std::size_t n = lower.rows();
  FACTION_DCHECK_EQ(lower.cols(), n);
  FACTION_CHECK_LEN(y, n);
  std::vector<double> x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= lower(k, i) * x[k];
    x[i] = sum / lower(i, i);
  }
  return x;
}

std::vector<double> CholeskySolve(const Matrix& lower,
                                  const std::vector<double>& b) {
  return BackSolveTranspose(lower, ForwardSolve(lower, b));
}

double LogDetFromCholesky(const Matrix& lower) {
  FACTION_DCHECK_EQ(lower.rows(), lower.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < lower.rows(); ++i) {
    acc += std::log(lower(i, i));
  }
  return 2.0 * acc;
}

void CholeskyRank1UpdateInPlace(Matrix* l, double* v, std::size_t n) {
  FACTION_CHECK(l != nullptr);
  FACTION_DCHECK_EQ(l->rows(), n);
  FACTION_DCHECK_EQ(l->cols(), n);
  FACTION_DCHECK(v != nullptr);
  Matrix& lo = *l;
  for (std::size_t k = 0; k < n; ++k) {
    const double lkk = lo(k, k);
    const double r = std::sqrt(lkk * lkk + v[k] * v[k]);
    const double c = r / lkk;
    const double s = v[k] / lkk;
    lo(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      lo(i, k) = (lo(i, k) + s * v[i]) / c;
      v[i] = c * v[i] - s * lo(i, k);
    }
  }
}

Status CholeskyRank1DowndateInPlace(Matrix* l, double* v, std::size_t n) {
  FACTION_CHECK(l != nullptr);
  FACTION_DCHECK_EQ(l->rows(), n);
  FACTION_DCHECK_EQ(l->cols(), n);
  FACTION_DCHECK(v != nullptr);
  Matrix& lo = *l;
  for (std::size_t k = 0; k < n; ++k) {
    const double lkk = lo(k, k);
    // (lkk - v)(lkk + v) is lkk^2 - v^2 with better cancellation behavior
    // near the positive-definiteness boundary.
    const double r2 = (lkk - v[k]) * (lkk + v[k]);
    if (r2 <= 0.0 || !std::isfinite(r2)) {
      return Status::NumericalError(
          "rank-1 downdate would lose positive definiteness (pivot " +
          std::to_string(r2) + " at " + std::to_string(k) + ")");
    }
    const double r = std::sqrt(r2);
    const double c = r / lkk;
    const double s = v[k] / lkk;
    lo(k, k) = r;
    for (std::size_t i = k + 1; i < n; ++i) {
      lo(i, k) = (lo(i, k) - s * v[i]) / c;
      v[i] = c * v[i] - s * lo(i, k);
    }
  }
  return Status::Ok();
}

void PowerIterationInto(const Matrix& w, int iters, Rng* rng,
                        SpectralEstimate* est) {
  FACTION_CHECK(rng != nullptr);
  FACTION_CHECK(est != nullptr);
  FACTION_CHECK_GE(iters, 0);
  const std::size_t rows = w.rows();
  const std::size_t cols = w.cols();
  est->sigma = 0.0;
  if (rows == 0 || cols == 0) {
    est->u.assign(rows, 0.0);
    est->v.assign(cols, 0.0);
    return;
  }

  std::vector<double>& u = est->u;
  std::vector<double>& v = est->v;
  if (u.size() != rows) {
    // Cold start: draw a fresh Gaussian direction (same draw sequence as
    // the by-value PowerIteration took on its cold path).
    u.resize(rows);
    for (auto& x : u) x = rng->Gaussian();
  }
  // Scales *vec to unit length and returns sum_i vec_new[i] * vec_old[i],
  // ascending i. A degenerate direction restarts from a unit basis vector.
  auto normalize = [](std::vector<double>* vec) {
    double n2 = 0.0;
    for (double x : *vec) n2 += x * x;
    const double norm = std::sqrt(n2);
    const bool degenerate = norm < 1e-12;
    double dot = 0.0;
    for (std::size_t i = 0; i < vec->size(); ++i) {
      const double old = (*vec)[i];
      (*vec)[i] = degenerate ? (i == 0 ? 1.0 : 0.0) : old / norm;
      dot += (*vec)[i] * old;
    }
    return dot;
  };
  normalize(&u);

  v.assign(cols, 0.0);
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    // v = W^T u
    std::fill(v.begin(), v.end(), 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = w.row_data(i);
      const double ui = u[i];
      for (std::size_t j = 0; j < cols; ++j) v[j] += row[j] * ui;
    }
    normalize(&v);
    // u = W v, normalized; sigma = u^T (W v) from the same products.
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = w.row_data(i);
      double acc = 0.0;
      for (std::size_t j = 0; j < cols; ++j) acc += row[j] * v[j];
      u[i] = acc;
    }
    sigma = normalize(&u);
  }
  if (iters == 0) {
    // No W v was formed: sigma = u^T W v at v = 0.
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = w.row_data(i);
      double acc = 0.0;
      for (std::size_t j = 0; j < cols; ++j) acc += row[j] * v[j];
      sigma += u[i] * acc;
    }
  }
  est->sigma = std::fabs(sigma);
}

SpectralEstimate PowerIteration(const Matrix& w, const std::vector<double>& u0,
                                int iters, Rng* rng) {
  SpectralEstimate est;
  est.u = u0;  // warm start iff the size matches, as before
  PowerIterationInto(w, iters, rng, &est);
  return est;
}

}  // namespace faction
