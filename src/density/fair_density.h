#ifndef FACTION_DENSITY_FAIR_DENSITY_H_
#define FACTION_DENSITY_FAIR_DENSITY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "density/gaussian.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// The cells of the mixture: classes [0, num_classes) times the declared
/// sensitive group values. The default is the paper's binary domain
/// {0, 1} x {-1, +1}; the DDU baseline uses one group ({0}) for a per-class
/// mixture, and multi-valued sensitive attributes declare more groups.
struct DensityDomain {
  int num_classes = 2;
  std::vector<int> groups = {-1, 1};

  bool operator==(const DensityDomain&) const = default;
};

/// Minimum and maximum over the finite entries of one log term of a batch
/// (std::min / std::max in row order); min > max when none is finite. The
/// batch scorer min-max normalizes each term by it (core/fair_score.h).
struct LogTermRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    if (!std::isfinite(v)) return;
    min = std::min(min, v);
    max = std::max(max, v);
  }
};

/// Caller-owned outputs of FairDensityEstimator::ScoreRows.
struct MixtureScores {
  double* log_density = nullptr;     ///< one per row; required
  double* log_unfairness = nullptr;  ///< one per row; with class_proba only
  LogTermRange density_range;        ///< over log_density, set by ScoreRows
  LogTermRange unfairness_range;     ///< over log_unfairness
};

/// The paper's fairness-aware density estimator G(z) (Sec. IV-B): a
/// GDA-fitted Gaussian mixture with one component per (class y, sensitive
/// group s) cell of its DensityDomain, weighted by the empirical joint
/// p(y, s) (Eq. 3).
///
/// Fitted on feature vectors z = r(x, theta) of the labeled pool; evaluated
/// on unlabeled candidates to obtain
///   - the marginal density g(z), measuring epistemic uncertainty (low
///     density = high uncertainty / OOD), and
///   - the per-class cross-group gaps Delta g_c(z) (Eqs. 4-5), the paper's
///     per-sample unfairness measure. Over more than two groups the gap is
///     the maximum pairwise one, max_{s,s'} |g(z|c,s) - g(z|c,s')|, which
///     is |g(z|c,+1) - g(z|c,-1)| on the binary domain.
///
/// All evaluation is done in log space, through ScoreRows: each combine
/// re-exponentiates against its own maximum, so far-OOD samples do not
/// underflow.
class FairDensityEstimator {
 public:
  FairDensityEstimator() = default;

  /// Fits the components from labeled feature vectors. Labels must lie in
  /// [0, domain.num_classes) and sensitive values in domain.groups
  /// (OutOfRange otherwise). Components with no samples are marked
  /// missing: their conditional density is 0 (log-density -inf) and their
  /// mixture weight is 0, which matches the empirical p(y,s) = 0. Fails
  /// when every component would be empty, the domain is malformed (fewer
  /// than 2 classes, no or duplicate groups) or inputs are inconsistent.
  static Result<FairDensityEstimator> Fit(const Matrix& features,
                                          const std::vector<int>& labels,
                                          const std::vector<int>& sensitive,
                                          const CovarianceConfig& config,
                                          DensityDomain domain = {});

  /// Incrementally absorbs newly labeled feature vectors: each touched
  /// component folds its rows via Gaussian::Update (O(rows * d^2) plus one
  /// Cholesky per touched component, instead of re-scanning the whole
  /// pool), previously empty components are fitted fresh, and all mixture
  /// weights are refreshed from the running counts. Components untouched
  /// by the batch keep their cached factorization. Requires a prior
  /// successful Fit; rows outside the domain are OutOfRange and leave the
  /// estimator unchanged. On any other error the estimator should be
  /// considered stale and re-Fit from scratch.
  Status Update(const Matrix& features, const std::vector<int>& labels,
                const std::vector<int>& sensitive,
                const CovarianceConfig& config);

  /// Absorbs a single labeled feature vector (length dim()) — the
  /// steady-state per-arrival fold. Identical numerics to Update with a
  /// one-row batch; allocation-free once the touched component's scratch
  /// is warm, except when `label`/`sensitive` hit a component for the
  /// first time (fresh fit, deliberately amortized). OutOfRange outside
  /// the domain.
  Status UpdateOne(const double* z, int label, int sensitive,
                   const CovarianceConfig& config);

  /// Evicts one previously folded feature vector — the sliding-window
  /// forgetting path — via its component's rank-1 Gaussian::DowndateOne;
  /// evicting a component's last row drops the component from the mixture
  /// entirely (exactly what a batch fit on the remaining window produces).
  /// `row_weight` is the evicted row's decayed effective weight (1 without
  /// decay). OutOfRange outside the domain; evicting a row from a
  /// component that never absorbed one is a checked abort — the window
  /// must only hand back rows it folded.
  Status DowndateOne(const double* z, int label, int sensitive,
                     const CovarianceConfig& config, double row_weight = 1.0);

  /// Exponentially down-weights every component and the mixture masses by
  /// `gamma` in (0, 1]. Mixture weights are ratios of uniformly scaled
  /// masses, so they are left literally untouched (as are every
  /// component's mean/factor — see Gaussian::Decay); only the raw masses
  /// scale. Forgetting mode (CovarianceConfig::forgetting) only.
  void Decay(double gamma);

  /// Rows currently absorbed: Fit plus every update, minus every eviction.
  std::size_t total_count() const { return total_; }

  std::size_t dim() const { return dim_; }
  const DensityDomain& domain() const { return domain_; }
  /// num_classes x groups mixture components.
  std::size_t num_components() const { return components_.size(); }

  /// Flat index of the (label, sensitive) component (label-major: a
  /// class's groups are adjacent) — the term order of every sum in
  /// ScoreRows — or -1 when the pair lies outside the domain.
  int ComponentIndex(int label, int sensitive) const;

  /// True when the (y, s) component was fitted from at least one sample;
  /// false outside the domain.
  // lint-allow(test-only-api): tests assert which cells a fit covers
  bool HasComponent(int label, int sensitive) const;

  /// log g(z | y, s); -infinity for missing components and outside the
  /// domain.
  // lint-allow(test-only-api): per-row oracle for the batched solves
  double LogComponentDensity(const std::vector<double>& z, int label,
                             int sensitive) const;

  /// Mixture weight p(y, s); 0 outside the domain.
  // lint-allow(test-only-api): tests assert the fitted mixture weights
  double Weight(int label, int sensitive) const;

  /// Doubles of caller scratch ScoreRows needs for a batch of `rows`.
  std::size_t ScoreScratchSize(std::size_t rows) const;

  /// The mixture's one combine (Eqs. 3-6) for every row z_i of `zs`:
  ///   out->log_density[i] = log g(z_i) = log sum_{y,s} g(z_i|y,s) p(y,s);
  ///   out->log_unfairness[i] = log sum_c p_c Delta g_c(z_i), when
  ///   `class_proba` (one row of p_c per z_i) is given.
  /// Delta g_c is the largest cross-group gap of class c, a missing
  /// component counting as density 0; a class with no gap or p_c <= 1e-12
  /// adds no term, and no term at all gives -inf.
  ///
  /// One chunked sweep: per 256-row block, each present component's
  /// blocked solve writes a component-major column, then the marginal, the
  /// per-class gaps and the class LogSumExp run through the SIMD
  /// exp/log/log1p kernels (DESIGN.md §10). Every row is computed by the
  /// same operation sequence wherever it sits, so a row's bits do not
  /// depend on the batch, its position in it, the SIMD tier or the thread
  /// count: a one-row call equals that row of a pool call. `scratch` holds
  /// ScoreScratchSize(zs.rows()) caller-owned doubles (clobbered); the
  /// call allocates nothing.
  void ScoreRows(const Matrix& zs, const Matrix* class_proba,
                 double* scratch, MixtureScores* out) const;

  /// log g(z) for one sample (a one-row ScoreRows).
  // lint-allow(test-only-api): tests check it against direct mixture sums
  double LogMarginalDensity(const std::vector<double>& z) const;

  /// log g(z) for every row of `zs` (ScoreRows without the unfairness).
  std::vector<double> LogMarginalDensityBatch(const Matrix& zs) const;

  /// Direct (unshifted) Delta g_c(z); 0 outside the domain: a one-row
  /// ScoreRows with p_c = 1 for `label`, exponentiated. May underflow far
  /// from the data.
  // lint-allow(test-only-api): tests check it against raw density gaps
  double DeltaG(const std::vector<double>& z, int label) const;

 private:
  friend struct StateCodecAccess;

  /// Shared body of Fit and Update: folds a labeled batch (fresh fits for
  /// components not yet present) and counts the components it touched.
  Status Absorb(const Matrix& features, const std::vector<int>& labels,
                const std::vector<int>& sensitive,
                const CovarianceConfig& config, std::uint64_t* touched);
  /// Recomputes weights_/log_weights_ from the counts (legacy) or the
  /// decayed masses (forgetting).
  void RefreshWeights();
  std::size_t dim_ = 0;
  DensityDomain domain_;
  std::vector<Gaussian> components_;  // indexed by ComponentIndex
  std::vector<bool> present_;
  std::vector<double> weights_;      // empirical p(y, s)
  std::vector<double> log_weights_;  // log(weights_), -inf at zero weight
  std::vector<std::size_t> counts_;  // per-component sample counts
  std::size_t total_ = 0;            // rows currently absorbed
  // Forgetting mode: decayed effective masses mirroring counts_/total_.
  // Weights come from these so decayed and evicted rows release exactly
  // the mass they still carry; in legacy mode the integer counts stay
  // authoritative (bitwise-identical weights to before this mode existed).
  bool forgetting_ = false;
  std::vector<double> wcounts_;
  double wtotal_ = 0.0;
};

}  // namespace faction

#endif  // FACTION_DENSITY_FAIR_DENSITY_H_
