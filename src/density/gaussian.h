#ifndef FACTION_DENSITY_GAUSSIAN_H_
#define FACTION_DENSITY_GAUSSIAN_H_

#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// Regularization for covariance estimates fitted from few samples — the
/// situation FACTION is always in early in the stream, when a (class,
/// sensitive) component may hold only a handful of labeled examples.
struct CovarianceConfig {
  /// Shrinkage toward the scaled identity: Sigma_reg =
  /// (1-shrinkage)*Sigma + shrinkage*(tr(Sigma)/d)*I.
  double shrinkage = 0.1;
  /// Absolute jitter added to the diagonal; doubled on Cholesky failure up
  /// to max_jitter_doublings times.
  double jitter = 1e-6;
  int max_jitter_doublings = 20;
  /// Forgetting mode (DESIGN.md §15): replaces the shrinkage/jitter
  /// regularization with a fixed ridge, Sigma = (M + ridge * I) / w for
  /// the centered scatter M and effective weight w. Shrinkage mixes in a
  /// full-rank diagonal term whose coefficient moves with the trace and
  /// count, which makes exact O(d^2) rank-1 factor maintenance impossible;
  /// the ridge keeps Sigma an affine function of rank-1-maintainable
  /// statistics, so Update/Downdate become exact factor updates and
  /// Decay a pure statistics rescale that leaves the factor untouched.
  /// `ridge` must be > 0 in this mode — it also keeps Sigma positive
  /// definite at any weight, so the single-sample fallback_scale identity
  /// never applies.
  bool forgetting = false;
  double ridge = 1.0;
};

/// Multivariate Gaussian fitted by maximum likelihood with shrinkage, used
/// as the class/sensitive-conditional density g(z | y, s) in the paper's
/// GDA-based estimator (Sec. IV-B).
class Gaussian {
 public:
  Gaussian() = default;

  /// Fits mean and regularized covariance from the rows of `samples`.
  /// With a single sample the covariance falls back to the identity scaled
  /// by `fallback_scale`. Fails on zero samples.
  ///
  /// Also records the sufficient statistics (count, coordinate sums, raw
  /// second-moment scatter) that Update() folds new samples into. The
  /// batch numerics are unchanged: mean and covariance still come from the
  /// two-pass centered computation.
  static Result<Gaussian> Fit(const Matrix& samples,
                              const CovarianceConfig& config,
                              double fallback_scale = 1.0);

  /// Incrementally folds the rows of `new_samples` into the fitted
  /// Gaussian: O(A * d^2) to update the sufficient statistics for A new
  /// rows plus one O(d^3) Cholesky re-factorization, independent of how
  /// many samples were already absorbed. The refreshed covariance is
  /// derived from the raw moments (scatter/n - mean mean^T), which is
  /// algebraically identical to the batch two-pass estimate but associates
  /// differently, so incremental and batch fits agree to rounding (the
  /// means agree bitwise when rows arrive in the same order). Requires a
  /// prior successful Fit and matching dimension.
  Status Update(const Matrix& new_samples, const CovarianceConfig& config,
                double fallback_scale = 1.0);

  /// Folds a single sample (length dim()) into the sufficient statistics —
  /// the steady-state per-arrival path. Identical numerics to Update with
  /// a one-row matrix, but allocation-free once the internal covariance/
  /// factor scratch buffers are warm.
  Status UpdateOne(const double* row, const CovarianceConfig& config,
                   double fallback_scale = 1.0);

  /// Removes one previously absorbed sample with effective weight
  /// `row_weight` (1 unless the row has been decayed since it was folded).
  /// In forgetting mode this is an O(d^2) rank-1 Cholesky downdate: the
  /// positive-definiteness guard solves L q = (x - mu') against the
  /// *unmodified* factor (through the dispatched downdate_solve kernel)
  /// and falls back to a full refactor from the downdated moments when the
  /// guard trips, the remaining effective weight drops below dim() + 1, or
  /// the hyperbolic sweep loses a pivot. In legacy mode every downdate is
  /// a moment subtraction plus refactor (and `row_weight` must be 1).
  /// Requires count() > 1: evicting the last absorbed sample is the
  /// caller's responsibility (drop the component instead).
  Status DowndateOne(const double* row, const CovarianceConfig& config,
                     double row_weight = 1.0, double fallback_scale = 1.0);

  /// Exponentially down-weights the absorbed statistics: the effective
  /// weight, sums, scatter, and tracked ridge all scale by `gamma` in
  /// (0, 1]. Sigma = (gamma*M + gamma*ridge*I) / (gamma*w) is invariant,
  /// so the cached mean, factor, and log-determinant are left bitwise
  /// untouched — decay changes no density until the next Update/Downdate,
  /// which sees its sample at relatively higher weight. Forgetting mode
  /// only.
  void Decay(double gamma);

  /// Number of samples absorbed so far (via Fit plus every Update).
  std::size_t count() const { return count_; }

  /// Effective absorbed mass: count() in legacy mode; in forgetting mode
  /// the decayed weight, which Decay shrinks and Downdate reduces by the
  /// evicted row's weight.
  double weight() const {
    return forgetting_ ? weight_ : static_cast<double>(count_);
  }

  /// log N(z; mean, cov). Precondition: z.size() == dim().
  double LogPdf(const std::vector<double>& z) const;

  /// LogPdf of `width` consecutive rows (row-major, dim() doubles each,
  /// starting at `zs`) into out[0, width): one blocked triangular solve
  /// against the cached Cholesky factor for the whole block. `ys` holds
  /// dim() * width caller-owned doubles (clobbered). Follows the exact
  /// per-sample operation order of LogPdf, so each value is bitwise equal
  /// to LogPdf's at every SIMD tier. Allocation-free; the mixture sweep
  /// (FairDensityEstimator::ScoreRows) calls it once per component and
  /// row block.
  void LogPdfBlock(const double* zs, std::size_t width, double* ys,
                   double* out) const;

  /// LogPdf over every row of `zs` in 256-row LogPdfBlock calls.
  // lint-allow(test-only-api): batched oracle for the per-tier parity tests
  std::vector<double> LogPdfBatch(const Matrix& zs) const;

  /// Squared Mahalanobis distance (z-mu)^T Sigma^-1 (z-mu).
  double MahalanobisSquared(const std::vector<double>& z) const;

  std::size_t dim() const { return mean_.size(); }
  const std::vector<double>& mean() const { return mean_; }
  double log_det() const { return log_det_; }

 private:
  friend struct StateCodecAccess;

  /// Applies progressive diagonal jitter to `cov` until the Cholesky
  /// succeeds, then caches the factor and log-determinant. Shared tail of
  /// Fit and Update. Works out of member scratch (reg_scratch_/chol_try_),
  /// so re-factorizations of a warm instance allocate nothing.
  Status FactorCovariance(const Matrix& cov, const CovarianceConfig& config);

  /// Recomputes mean/covariance from the raw moments and re-factorizes.
  /// Shared tail of Update and UpdateOne (identical arithmetic order).
  Status RefreshFromMoments(const CovarianceConfig& config,
                            double fallback_scale);

  /// Forgetting-mode refactor: mean from sums, covariance
  /// (scatter - sum sum^T / w + ridge * I) / w, factored without jitter
  /// (the ridge keeps it positive definite); the progressive-jitter rescue
  /// only runs on numerical failure. The fallback target of every guarded
  /// downdate — it overwrites the factor entirely, so a partially mutated
  /// hyperbolic sweep leaves no residue.
  Status RefreshRidge(const CovarianceConfig& config);

  /// Factors `cov` directly (no jitter), falling back to the progressive-
  /// jitter loop on failure. Shared tail of the forgetting-mode Fit and
  /// RefreshRidge.
  Status FactorRidgeCovariance(const Matrix& cov,
                               const CovarianceConfig& config);

  std::vector<double> mean_;
  Matrix chol_;  // lower Cholesky factor of the regularized covariance
  double log_det_ = 0.0;

  // Sufficient statistics for incremental refits: sample count, per-
  // coordinate sums, and the raw second moment sum_i x_i x_i^T (lower
  // triangle authoritative, kept symmetric).
  std::size_t count_ = 0;
  std::vector<double> sum_;
  Matrix scatter_;

  // Forgetting-mode state: the exponentially decayed effective weight and
  // ridge (both scale under Decay; weight_ == count_ until the first
  // Decay), plus the mode flag captured at Fit.
  bool forgetting_ = false;
  double weight_ = 0.0;
  double ridge_ = 0.0;

  // Warm scratch for the incremental path (covariance from moments, the
  // jittered copy handed to the factorization, and the trial factor that
  // is swapped into chol_ on success). Capacity is retained, so the
  // steady-state UpdateOne performs no heap allocation.
  Matrix cov_scratch_;
  Matrix reg_scratch_;
  Matrix chol_try_;

  // Rank-1 scratch (forgetting mode): the update/downdate vector and the
  // guard-solve copy the dispatched kernel clobbers. Pre-sized at Fit so
  // the steady-state evict -> downdate path allocates nothing.
  std::vector<double> down_v_;
  std::vector<double> down_p_;
};

}  // namespace faction

#endif  // FACTION_DENSITY_GAUSSIAN_H_
