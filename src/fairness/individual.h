#ifndef FACTION_FAIRNESS_INDIVIDUAL_H_
#define FACTION_FAIRNESS_INDIVIDUAL_H_

#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace faction {

/// Individual-fairness extension sketched in the paper's Sec. IV-H: "with
/// an appropriate similarity metric, FACTION could enforce individual
/// fairness by penalizing inconsistent treatment of similar samples."
///
/// This module implements that extension as a Lipschitz-style consistency
/// penalty over a batch:
///
///   L_ind = (1 / |P|) * sum_{(i,j) in P} w_ij * (h_i - h_j)^2
///
/// where h is the positive-class probability, w_ij =
/// exp(-||x_i - x_j||^2 / (2 sigma^2)) is an RBF similarity on the raw
/// inputs, and P is the set of pairs with w_ij above a cutoff (distant
/// pairs contribute nothing and are skipped for cost).
struct IndividualFairnessConfig {
  /// Weight of the penalty in the total loss.
  double weight = 0.5;
  /// RBF bandwidth sigma of the similarity metric.
  double bandwidth = 1.0;
  /// Pairs with similarity below this are ignored.
  double similarity_cutoff = 0.05;
  /// Cap on the number of (randomly ordered, deterministic) pairs scored
  /// per batch, bounding the O(n^2) cost on large batches.
  std::size_t max_pairs = 4096;
};

/// Evaluates the individual-fairness penalty on a batch and accumulates
/// its gradient into *dlogits (which must hold the upstream gradient with
/// matching shape). `inputs` are the raw features used by the similarity
/// metric; `logits` the binary-classification logits. Returns the penalty
/// value added to the loss (0 when no pair passes the cutoff).
Result<double> AddIndividualFairnessPenalty(
    const Matrix& inputs, const Matrix& logits,
    const IndividualFairnessConfig& config, Matrix* dlogits);

/// The penalty value alone (no gradient): used for evaluation and tests.
// lint-allow(test-only-api): finite-difference oracle for the gradient
Result<double> IndividualFairnessPenalty(
    const Matrix& inputs, const Matrix& logits,
    const IndividualFairnessConfig& config);

}  // namespace faction

#endif  // FACTION_FAIRNESS_INDIVIDUAL_H_
