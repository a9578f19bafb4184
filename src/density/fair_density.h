#ifndef FACTION_DENSITY_FAIR_DENSITY_H_
#define FACTION_DENSITY_FAIR_DENSITY_H_

#include <cstdint>
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
/// All evaluation is done in log space; the scorer re-exponentiates with a
/// shared per-batch shift, which leaves FACTION's min-max-normalized score
/// invariant while avoiding underflow for far-OOD samples.
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
  /// num_classes x groups: the length of a component row.
  std::size_t num_components() const { return components_.size(); }

  /// Flat index of the (label, sensitive) component — column order of the
  /// component rows below and term order of every LogSumExp combine — or
  /// -1 when the pair lies outside the domain.
  int ComponentIndex(int label, int sensitive) const;

  /// True when the (y, s) component was fitted from at least one sample;
  /// false outside the domain.
  // lint-allow(test-only-api): tests assert which cells a fit covers
  bool HasComponent(int label, int sensitive) const;

  /// log g(z | y, s); -infinity for missing components and outside the
  /// domain.
  // lint-allow(test-only-api): per-row oracle for the batched scorer
  double LogComponentDensity(const std::vector<double>& z, int label,
                             int sensitive) const;

  /// Mixture weight p(y, s); 0 outside the domain.
  // lint-allow(test-only-api): tests assert the fitted mixture weights
  double Weight(int label, int sensitive) const;

  /// One sample's component log-densities: row[ComponentIndex(y, s)] =
  /// log g(z | y, s), -inf for missing components. `z` points at dim()
  /// coordinates, `scratch` at dim() caller-owned doubles (clobbered by
  /// the triangular solves), `row` at num_components() doubles.
  /// Allocation-free; bitwise identical to a ComponentLogPdfBatch row.
  void ComponentLogPdfRow(const double* z, double* scratch,
                          double* row) const;

  /// Batched component log-densities for every row of `zs`: fills `out`
  /// (resized to zs.rows() x num_components()) with one
  /// ComponentLogPdfRow per sample. One blocked triangular solve per
  /// component for the whole batch; bitwise identical to per-sample
  /// LogPdf calls.
  void ComponentLogPdfBatch(const Matrix& zs, Matrix* out) const;

  /// log g(z) = log sum_{y,s} g(z|y,s) p(y,s) (Eq. 3, log space) from a
  /// component row.
  double LogMarginalFromRow(const double* row) const;

  /// Combines a ComponentLogPdfBatch matrix into per-sample marginals:
  /// out[i] = LogMarginalFromRow(comp row i).
  void LogMarginalFromComponents(const Matrix& comp, double* out) const;

  /// log Delta g_c(z) for class `label` from a component row: the log of
  /// the largest cross-group density gap, a missing component counting as
  /// density 0; -inf when no pair of groups differs.
  double LogDeltaG(const double* row, int label) const;

  /// log g(z) for one sample.
  // lint-allow(test-only-api): per-row oracle for the batched scorer
  double LogMarginalDensity(const std::vector<double>& z) const;

  /// Batched marginal over the rows of `zs`.
  std::vector<double> LogMarginalDensityBatch(const Matrix& zs) const;

  /// Direct (unshifted) Delta g_c(z); 0 outside the domain. Convenient for
  /// tests and small-dimensional use; may underflow far from the data.
  // lint-allow(test-only-api): per-row oracle for the batched Eq. 6 term
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
  /// Component row of one sample via the vector LogPdf (cold callers).
  std::vector<double> ComponentRow(const std::vector<double>& z) const;

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
