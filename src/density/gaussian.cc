// FACTION_HOT: density evaluation backs both the per-arrival score and the
// batched pool scoring ban regions; allocating idioms here are lint
// findings (tools/lint.py no-alloc-in-hot, DESIGN.md §13). Fitting and the
// scalar convenience wrappers sit inside FACTION_COLD fences.
#include "density/gaussian.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "tensor/linalg.h"
#include "tensor/simd.h"

namespace faction {

namespace {

// Rank-1 downdate guard margin: p^T p above 1 - kDowndateGuardTol means
// the downdated covariance would sit too close to the positive-definite
// boundary for the hyperbolic sweep to be trustworthy — refactor instead.
constexpr double kDowndateGuardTol = 1e-8;

}  // namespace

// FACTION_COLD_BEGIN: batch fitting allocates the moment matrices once per
// (re)fit — amortized per round, not per arrival.
Result<Gaussian> Gaussian::Fit(const Matrix& samples,
                               const CovarianceConfig& config,
                               double fallback_scale) {
  const std::size_t n = samples.rows();
  const std::size_t d = samples.cols();
  if (n == 0 || d == 0) {
    return Status::InvalidArgument("Gaussian::Fit requires samples");
  }
  if (config.forgetting && !(config.ridge > 0.0)) {
    return Status::InvalidArgument(
        "Gaussian::Fit: forgetting mode requires ridge > 0");
  }
  Gaussian g;
  g.count_ = n;
  g.forgetting_ = config.forgetting;
  g.weight_ = static_cast<double>(n);
  g.ridge_ = config.ridge;
  g.sum_.assign(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = samples.row_data(i);
    for (std::size_t j = 0; j < d; ++j) g.sum_[j] += row[j];
  }
  g.mean_.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    g.mean_[j] = g.sum_[j] / static_cast<double>(n);
  }

  Matrix cov(d, d);
  g.scatter_ = Matrix(d, d);
  if (n >= 2) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = samples.row_data(i);
      for (std::size_t a = 0; a < d; ++a) {
        const double da = row[a] - g.mean_[a];
        double* cov_a = cov.row_data(a);
        for (std::size_t b = 0; b <= a; ++b) {
          cov_a[b] += da * (row[b] - g.mean_[b]);
        }
      }
    }
    // Derive the raw scatter sum_i x_i x_i^T from the centered one before
    // the in-place normalization below destroys it:
    //   S_raw = S_c + (sum sum^T)/n.
    for (std::size_t a = 0; a < d; ++a) {
      const double* cov_a = cov.row_data(a);
      double* sc_a = g.scatter_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) {
        sc_a[b] =
            cov_a[b] + g.sum_[a] * g.sum_[b] / static_cast<double>(n);
        g.scatter_(b, a) = sc_a[b];
      }
    }
    if (config.forgetting) {
      // Ridge regularization: Sigma = (M + ridge * I) / n on the centered
      // scatter M still sitting in cov's lower triangle. No shrinkage, no
      // jitter — the exact matrix the rank-1 update/downdate path
      // maintains.
      for (std::size_t a = 0; a < d; ++a) {
        double* cov_a = cov.row_data(a);
        for (std::size_t b = 0; b <= a; ++b) {
          double m = cov_a[b];
          if (a == b) m += config.ridge;
          cov_a[b] = m / static_cast<double>(n);
          cov(b, a) = cov_a[b];
        }
      }
    } else {
      for (std::size_t a = 0; a < d; ++a) {
        double* cov_a = cov.row_data(a);
        for (std::size_t b = 0; b <= a; ++b) {
          cov_a[b] /= static_cast<double>(n);
          cov(b, a) = cov_a[b];
        }
      }
      // Shrinkage toward the scaled identity.
      double trace = 0.0;
      for (std::size_t a = 0; a < d; ++a) trace += cov(a, a);
      const double iso = trace / static_cast<double>(d);
      const double rho = config.shrinkage;
      for (std::size_t a = 0; a < d; ++a) {
        double* cov_a = cov.row_data(a);
        for (std::size_t b = 0; b < d; ++b) {
          cov_a[b] *= 1.0 - rho;
          if (a == b) cov_a[b] += rho * iso;
        }
      }
    }
  } else {
    // A single sample carries no covariance information, but its raw
    // scatter is exactly x x^T = sum sum^T.
    for (std::size_t a = 0; a < d; ++a) {
      double* sc_a = g.scatter_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) {
        sc_a[b] = g.sum_[a] * g.sum_[b];
        g.scatter_(b, a) = sc_a[b];
      }
    }
    for (std::size_t a = 0; a < d; ++a) {
      cov(a, a) = config.forgetting ? config.ridge : fallback_scale;
    }
  }

  if (config.forgetting) {
    FACTION_RETURN_IF_ERROR(g.FactorRidgeCovariance(cov, config));
    // Rank-1 scratch sized here, in the cold batch path, so the first
    // steady-state update/evict after a (re)fit allocates nothing.
    g.down_v_.assign(d, 0.0);
    g.down_p_.assign(d, 0.0);
  } else {
    FACTION_RETURN_IF_ERROR(g.FactorCovariance(cov, config));
  }
  // Leave the instance fold-warm: RefreshFromMoments writes cov_scratch_
  // and CholeskyInto the trial factor, both still empty on a fresh fit
  // (the accepted factor was swapped *out* of chol_try_). Sizing them here,
  // in the cold batch path, keeps the first incremental UpdateOne after a
  // (re)fit allocation-free — the steady-state gate measures that arrival
  // like any other.
  g.cov_scratch_.ResizeForOverwrite(d, d);
  g.chol_try_.ResizeForOverwrite(d, d);
  return g;
}
// FACTION_COLD_END

Status Gaussian::Update(const Matrix& new_samples,
                        const CovarianceConfig& config,
                        double fallback_scale) {
  if (count_ == 0) {
    return Status::FailedPrecondition(
        "Gaussian::Update requires a prior successful Fit");
  }
  const std::size_t d = dim();
  if (new_samples.cols() != d) {
    return Status::InvalidArgument("Gaussian::Update: dimension mismatch");
  }
  const std::size_t added = new_samples.rows();
  if (added == 0) return Status::Ok();

  if (forgetting_) {
    // Per-row rank-1 factor updates: O(added * d^2) total, no
    // refactorization at all.
    for (std::size_t i = 0; i < added; ++i) {
      FACTION_RETURN_IF_ERROR(
          UpdateOne(new_samples.row_data(i), config, fallback_scale));
    }
    return Status::Ok();
  }

  // Fold the new rows into the raw moments: O(added * d^2), independent of
  // how many samples were absorbed before.
  for (std::size_t i = 0; i < added; ++i) {
    const double* row = new_samples.row_data(i);
    for (std::size_t a = 0; a < d; ++a) {
      const double va = row[a];
      sum_[a] += va;
      double* sc_a = scatter_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) sc_a[b] += va * row[b];
    }
  }
  count_ += added;
  return RefreshFromMoments(config, fallback_scale);
}

Status Gaussian::UpdateOne(const double* row, const CovarianceConfig& config,
                           double fallback_scale) {
  if (count_ == 0) {
    return Status::FailedPrecondition(
        "Gaussian::UpdateOne requires a prior successful Fit");
  }
  FACTION_CHECK(row != nullptr);
  const std::size_t d = dim();
  if (forgetting_) {
    // Rank-1 factor update, O(d^2): with w' = w + 1 and v = x - mu_old,
    //   Sigma' = (w/w') Sigma + (w/w'^2) v v^T,
    // so the new factor is the old one scaled by sqrt(w/w') then updated
    // with u = v * sqrt(w)/w'. Adding v v^T keeps Sigma' positive
    // definite, so no guard is needed on this side.
    const double w = weight_;
    const double w2 = w + 1.0;
    double* v = down_v_.data();
    for (std::size_t j = 0; j < d; ++j) v[j] = row[j] - mean_[j];
    for (std::size_t a = 0; a < d; ++a) {
      const double va = row[a];
      sum_[a] += va;
      double* sc_a = scatter_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) sc_a[b] += va * row[b];
    }
    count_ += 1;
    weight_ = w2;
    for (std::size_t j = 0; j < d; ++j) mean_[j] = sum_[j] / w2;
    const double scale = std::sqrt(w / w2);
    for (std::size_t a = 0; a < d; ++a) {
      double* ch_a = chol_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) ch_a[b] *= scale;
    }
    const double vs = std::sqrt(w) / w2;
    for (std::size_t j = 0; j < d; ++j) v[j] *= vs;
    CholeskyRank1UpdateInPlace(&chol_, v, d);
    log_det_ = LogDetFromCholesky(chol_);
    FACTION_DCHECK_FINITE(log_det_);
    return Status::Ok();
  }
  for (std::size_t a = 0; a < d; ++a) {
    const double va = row[a];
    sum_[a] += va;
    double* sc_a = scatter_.row_data(a);
    for (std::size_t b = 0; b <= a; ++b) sc_a[b] += va * row[b];
  }
  count_ += 1;
  return RefreshFromMoments(config, fallback_scale);
}

Status Gaussian::DowndateOne(const double* row, const CovarianceConfig& config,
                             double row_weight, double fallback_scale) {
  FACTION_CHECK(row != nullptr);
  // Evicting the last sample would leave nothing to estimate from; the
  // mixture layer drops the component instead of downdating it to zero.
  FACTION_CHECK_GT(count_, std::size_t{1});
  const std::size_t d = dim();
  TelemetryCount("density.downdates");
  if (!forgetting_) {
    FACTION_CHECK(row_weight == 1.0);
    for (std::size_t a = 0; a < d; ++a) {
      const double va = row[a];
      sum_[a] -= va;
      double* sc_a = scatter_.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) sc_a[b] -= va * row[b];
    }
    count_ -= 1;
    // Legacy regularization cannot be maintained rank-1 (see
    // CovarianceConfig::forgetting): every legacy downdate is a refactor.
    TelemetryCount("density.downdate_fallback_refactors");
    return RefreshFromMoments(config, fallback_scale);
  }
  FACTION_CHECK(row_weight > 0.0);
  const double w = weight_;
  const double omega = row_weight;
  const double w2 = w - omega;
  // Moments first: wherever the guard trips below, the fallback refactor
  // reads fully downdated statistics.
  for (std::size_t a = 0; a < d; ++a) {
    const double va = omega * row[a];
    sum_[a] -= va;
    double* sc_a = scatter_.row_data(a);
    for (std::size_t b = 0; b <= a; ++b) sc_a[b] -= va * row[b];
  }
  count_ -= 1;
  weight_ = w2;
  if (!(w2 >= static_cast<double>(d) + 1.0)) {
    // Below d + 1 effective samples the downdated covariance sits too
    // close to rank deficiency for a guarded rank-1 sweep.
    TelemetryCount("density.downdate_fallback_refactors");
    return RefreshRidge(config);
  }
  for (std::size_t j = 0; j < d; ++j) mean_[j] = sum_[j] / w2;
  // Positive-definiteness guard against the *unmodified* factor: with
  // v = x - mu', the downdated covariance is
  //   Sigma' = (w/w') Sigma - (omega/w) v v^T = S S^T - u u^T
  // for S = sqrt(w/w') L and u = v sqrt(omega/w); Sigma' stays positive
  // definite iff |S^-1 u|^2 = (omega w' / w^2) |L^-1 v|^2 < 1. The solve
  // runs through the dispatched kernel — bitwise-identical across tiers,
  // so the guard's branch is too.
  double* v = down_v_.data();
  double* p = down_p_.data();
  for (std::size_t j = 0; j < d; ++j) {
    v[j] = row[j] - mean_[j];
    p[j] = v[j];
  }
  double pnorm2 = 0.0;
  ActiveSimd().downdate_solve(chol_.data(), d, p, 1, &pnorm2);
  const double guard = (omega * w2 / (w * w)) * pnorm2;
  if (!(guard < 1.0 - kDowndateGuardTol)) {
    TelemetryCount("density.downdate_fallback_refactors");
    return RefreshRidge(config);
  }
  const double scale = std::sqrt(w / w2);
  for (std::size_t a = 0; a < d; ++a) {
    double* ch_a = chol_.row_data(a);
    for (std::size_t b = 0; b <= a; ++b) ch_a[b] *= scale;
  }
  const double vs = std::sqrt(omega / w);
  for (std::size_t j = 0; j < d; ++j) v[j] *= vs;
  const Status downdated = CholeskyRank1DowndateInPlace(&chol_, v, d);
  if (!downdated.ok()) {
    // Pivot lost mid-sweep despite the guard: the factor is partially
    // mutated, but the refactor below overwrites it entirely from the
    // already-downdated moments.
    TelemetryCount("density.downdate_fallback_refactors");
    return RefreshRidge(config);
  }
  log_det_ = LogDetFromCholesky(chol_);
  FACTION_DCHECK_FINITE(log_det_);
  return Status::Ok();
}

void Gaussian::Decay(double gamma) {
  FACTION_CHECK(forgetting_);
  FACTION_CHECK(gamma > 0.0 && gamma <= 1.0);
  // Sigma = (gamma*M + gamma*ridge*I) / (gamma*w) is invariant: only the
  // raw statistics scale; mean_, chol_, and log_det_ stay bitwise
  // untouched (tests pin this). The decay's effect surfaces at the next
  // Update/Downdate, whose sample meets a lighter history.
  weight_ *= gamma;
  ridge_ *= gamma;
  const std::size_t d = dim();
  for (std::size_t j = 0; j < d; ++j) sum_[j] *= gamma;
  double* sc = scatter_.data();
  for (std::size_t i = 0; i < d * d; ++i) sc[i] *= gamma;
  TelemetryCount("density.decays");
}

Status Gaussian::RefreshRidge(const CovarianceConfig& config) {
  const std::size_t d = dim();
  const double w = weight_;
  if (!(w > 0.0)) {
    // An eviction took all the mass the component carried (a corrupted
    // restore, or rounding under extreme decay); the window drops the
    // estimator on this error.
    return Status::NumericalError("Gaussian: non-positive weight");
  }
  for (std::size_t j = 0; j < d; ++j) mean_[j] = sum_[j] / w;
  for (std::size_t a = 0; a < d; ++a) {
    const double* sc_a = scatter_.row_data(a);
    for (std::size_t b = 0; b < a; ++b) scatter_(b, a) = sc_a[b];
  }
  Matrix& cov = cov_scratch_;
  // Every element is written (lower triangle then mirror) before the
  // factorization reads it, so the skip-the-clear resize is exact.
  cov.ResizeForOverwrite(d, d);
  for (std::size_t a = 0; a < d; ++a) {
    const double* sc_a = scatter_.row_data(a);
    double* cov_a = cov.row_data(a);
    for (std::size_t b = 0; b <= a; ++b) {
      double m = sc_a[b] - sum_[a] * sum_[b] / w;
      if (a == b) m += ridge_;
      cov_a[b] = m / w;
      cov(b, a) = cov_a[b];
    }
  }
  return FactorRidgeCovariance(cov, config);
}

Status Gaussian::FactorRidgeCovariance(const Matrix& cov,
                                       const CovarianceConfig& config) {
  // The ridge keeps cov positive definite by construction, so factor it
  // directly — the incremental factor and a refactor then describe the
  // same matrix, jitter-free. The progressive-jitter loop is a rescue for
  // numerical failure only.
  const Status direct = CholeskyInto(cov, &chol_try_);
  if (direct.ok()) {
    std::swap(chol_, chol_try_);
    log_det_ = LogDetFromCholesky(chol_);
    FACTION_DCHECK_FINITE(log_det_);
    return Status::Ok();
  }
  return FactorCovariance(cov, config);
}

Status Gaussian::RefreshFromMoments(const CovarianceConfig& config,
                                    double fallback_scale) {
  if (forgetting_) return RefreshRidge(config);
  const std::size_t d = dim();
  const double n = static_cast<double>(count_);
  for (std::size_t j = 0; j < d; ++j) mean_[j] = sum_[j] / n;
  for (std::size_t a = 0; a < d; ++a) {
    const double* sc_a = scatter_.row_data(a);
    for (std::size_t b = 0; b < a; ++b) scatter_(b, a) = sc_a[b];
  }

  Matrix& cov = cov_scratch_;
  if (count_ >= 2) {
    // Every element is written (lower triangle then its mirror) before the
    // shrinkage pass reads it back, so the skip-the-clear resize is exact.
    cov.ResizeForOverwrite(d, d);
    // Covariance from the raw moments (scatter/n - mean mean^T): the same
    // estimator as the batch two-pass computation up to rounding.
    for (std::size_t a = 0; a < d; ++a) {
      const double* sc_a = scatter_.row_data(a);
      double* cov_a = cov.row_data(a);
      for (std::size_t b = 0; b <= a; ++b) {
        cov_a[b] = sc_a[b] / n - mean_[a] * mean_[b];
        cov(b, a) = cov_a[b];
      }
    }
    double trace = 0.0;
    for (std::size_t a = 0; a < d; ++a) trace += cov(a, a);
    const double iso = trace / static_cast<double>(d);
    const double rho = config.shrinkage;
    for (std::size_t a = 0; a < d; ++a) {
      double* cov_a = cov.row_data(a);
      for (std::size_t b = 0; b < d; ++b) {
        cov_a[b] *= 1.0 - rho;
        if (a == b) cov_a[b] += rho * iso;
      }
    }
  } else {
    cov.Resize(d, d);
    for (std::size_t a = 0; a < d; ++a) cov(a, a) = fallback_scale;
  }
  return FactorCovariance(cov, config);
}

Status Gaussian::FactorCovariance(const Matrix& cov,
                                  const CovarianceConfig& config) {
  const std::size_t d = cov.rows();
  // Progressive jitter until the Cholesky succeeds. The jittered copy and
  // the trial factor live in member scratch (capacity-retaining copies),
  // and the accepted factor is swapped into chol_, so re-factorizing a
  // warm instance allocates nothing.
  double jitter = config.jitter;
  for (int attempt = 0; attempt <= config.max_jitter_doublings; ++attempt) {
    reg_scratch_ = cov;
    for (std::size_t a = 0; a < d; ++a) reg_scratch_(a, a) += jitter;
    const Status chol_status = CholeskyInto(reg_scratch_, &chol_try_);
    if (chol_status.ok()) {
      std::swap(chol_, chol_try_);
      log_det_ = LogDetFromCholesky(chol_);
      FACTION_DCHECK_FINITE(log_det_);
      return Status::Ok();
    }
    jitter = jitter > 0.0 ? jitter * 2.0 : 1e-8;
  }
  return Status::NumericalError(
      "Gaussian: covariance not positive definite even after jitter");
}

// FACTION_COLD_BEGIN: scalar reference implementations the raw-pointer and
// batched paths are parity-tested against; tests and one-off callers only.
double Gaussian::MahalanobisSquared(const std::vector<double>& z) const {
  FACTION_CHECK_LEN(z, dim());
  std::vector<double> centered(dim());
  for (std::size_t j = 0; j < dim(); ++j) centered[j] = z[j] - mean_[j];
  // Solve L y = (z - mu); then |y|^2 is the Mahalanobis square.
  const std::vector<double> y = ForwardSolve(chol_, centered);
  double acc = 0.0;
  for (double v : y) acc += v * v;
  // +inf for a row infinitely far away, as in LogPdf; only NaN is a bug.
  FACTION_DCHECK(!std::isnan(acc));
  return acc;
}

double Gaussian::LogPdf(const std::vector<double>& z) const {
  static constexpr double kLog2Pi = 1.8378770664093453;
  const double maha = MahalanobisSquared(z);
  return -0.5 * (static_cast<double>(dim()) * kLog2Pi + log_det_ + maha);
}
// FACTION_COLD_END

void Gaussian::LogPdfBlock(const double* zs, std::size_t width, double* ys,
                           double* out) const {
  static constexpr double kLog2Pi = 1.8378770664093453;
  const std::size_t d = dim();
  const double base = static_cast<double>(d) * kLog2Pi + log_det_;
  // Dim-major scratch: ys[j * width + t] belongs to row t, so the inner
  // solve loops stream contiguously over the block.
  for (std::size_t t = 0; t < width; ++t) {
    const double* zrow = zs + t * d;
    for (std::size_t j = 0; j < d; ++j) ys[j * width + t] = zrow[j] - mean_[j];
  }
  // Vectorized forward solve + Mahalanobis reduction across the block's
  // sample lanes. Per sample this replays the exact operation order of
  // ForwardSolve (ascending k, then one divide) and the ascending-j
  // squared-norm sum, so the result is bitwise identical to per-sample
  // LogPdf at every dispatch level (tests/simd_test.cc pins this).
  ActiveSimd().logpdf_block(chol_.data(), d, ys, width, base, out);
  // As in LogPdf: an extreme but finite row lies infinitely far away
  // (-inf, which the scorers handle); only NaN is a bug.
  FACTION_DCHECK(std::none_of(out, out + width,
                              [](double v) { return std::isnan(v); }));
}

// FACTION_COLD_BEGIN: value-returning convenience wrapper.
std::vector<double> Gaussian::LogPdfBatch(const Matrix& zs) const {
  FACTION_CHECK_EQ(zs.cols(), dim());
  constexpr std::size_t kBlock = 256;
  std::vector<double> out(zs.rows());
  std::vector<double> ys(dim() * std::min(zs.rows(), kBlock));
  for (std::size_t s0 = 0; s0 < zs.rows(); s0 += kBlock) {
    LogPdfBlock(zs.row_data(s0), std::min(zs.rows() - s0, kBlock), ys.data(),
                out.data() + s0);
  }
  return out;
}
// FACTION_COLD_END

}  // namespace faction
