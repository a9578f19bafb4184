#ifndef FACTION_CORE_FAIR_SCORE_H_
#define FACTION_CORE_FAIR_SCORE_H_

#include <vector>

#include "common/status.h"
#include "density/fair_density.h"
#include "tensor/matrix.h"

namespace faction {

/// Per-candidate breakdown of FACTION's query score (Eq. 6):
///   u(x) = g(z) - lambda * sum_c p_c^x * Delta g_c(z).
///
/// Implementation-fidelity note: Eq. 6 combines raw densities. In feature
/// spaces of moderate dimension raw Gaussian densities span hundreds of
/// orders of magnitude, so the literal combination is numerically
/// degenerate (almost every candidate's density underflows relative to the
/// batch maximum and the score collapses onto the fairness term regardless
/// of lambda). This implementation therefore works per batch in the log
/// domain: each term is computed as a log-density, min-max normalized
/// across the batch (a strictly monotone per-term transform), and then
/// combined as u = norm(log g) - lambda * norm(log unfairness). Selection
/// order within each term is identical to the raw formulation; lambda
/// meaningfully balances the two terms. See DESIGN.md.
struct FactionScore {
  double u = 0.0;  ///< combined score; lower = query first
  /// log g(z) (Eq. 3, log domain).
  double log_density = 0.0;
  /// log sum_c p_c^x * Delta g_c(z) (Eqs. 4-6, log domain); -infinity when
  /// every class's cross-group gap is zero or unavailable.
  double log_unfairness = 0.0;
};

/// Reusable buffers for ComputeFactionScores: the mixture sweep's scratch
/// and the two per-candidate log terms. A strategy keeps one across AL
/// iterations so pool scoring stops allocating every round. Buffers grow on
/// demand and keep their capacity; never share one across concurrent
/// callers.
struct FactionScoreScratch {
  std::vector<double> sweep;
  std::vector<double> log_density;
  std::vector<double> log_unfair;
};

/// Computes FACTION scores for a batch of feature vectors.
///
/// `features` holds one z per row; `class_proba` holds the softmax
/// probabilities p_c^x from the previous-step classifier h_{t-1} (same row
/// count, one column per class). With `fair_select` false the unfairness
/// term is dropped entirely (the paper's "w/o Fair Select" ablation).
///
/// The whole pool is scored by one chunked sweep
/// (FairDensityEstimator::ScoreRows): per 256-row block, one blocked
/// triangular solve per component feeds both the marginal-density and the
/// unfairness term, which run through the SIMD exp/log/log1p kernels and
/// report each term's finite range. One final pass then normalizes both
/// terms, forms u and fills the output. A row's scores do not depend on the
/// pool it sits in, the SIMD tier or FACTION_NUM_THREADS, and its log terms
/// are bitwise those StreamingFaction computes for the same arrival.
/// `scratch` is optional; passing one reuses its buffers instead of
/// allocating per call (the scores themselves are unaffected).
Result<std::vector<FactionScore>> ComputeFactionScores(
    const FairDensityEstimator& estimator, const Matrix& features,
    const Matrix& class_proba, double lambda, bool fair_select,
    FactionScoreScratch* scratch = nullptr);

/// Allocation-aware variant: scores are resized into *out (capacity kept
/// across rounds) instead of returned by value. Identical numerics; with a
/// warm scratch and a warm *out the call performs no heap allocation.
Status ComputeFactionScoresInto(const FairDensityEstimator& estimator,
                                const Matrix& features,
                                const Matrix& class_proba, double lambda,
                                bool fair_select,
                                FactionScoreScratch* scratch,
                                std::vector<FactionScore>* out);

}  // namespace faction

#endif  // FACTION_CORE_FAIR_SCORE_H_
