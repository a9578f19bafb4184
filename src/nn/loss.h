#ifndef FACTION_NN_LOSS_H_
#define FACTION_NN_LOSS_H_

#include <vector>

#include "common/status.h"
#include "fairness/relaxed.h"
#include "tensor/matrix.h"

namespace faction {

class Workspace;

/// Mean softmax cross-entropy over the batch. Writes dL/dlogits (already
/// divided by the batch size) into *dlogits (resized to match). Returns the
/// scalar loss.
///
/// Two-pass reference path: materializes LogSoftmaxRows, then derives the
/// loss and gradient from it. Retained as the parity oracle for
/// FusedSoftmaxCrossEntropy (tests pin the two to identical results).
double SoftmaxCrossEntropy(const Matrix& logits, const std::vector<int>& labels,
                           Matrix* dlogits);

/// Fused log-softmax + cross-entropy + gradient: the log-probabilities are
/// formed in *dlogits and turned into the gradient in place, so no
/// intermediate matrix is materialized and nothing is allocated once
/// *dlogits has its capacity. Per-element numerics and the row order of
/// the loss sum replicate SoftmaxCrossEntropy exactly: gradient and loss
/// are bitwise equal to the two-pass path. Every exp and log runs batch
/// wide through the SIMD layer's vexp/vlog (tensor/ops.h).
///
/// With a `proba` matrix it also hands out the row softmax it forms on the
/// way, bitwise SoftmaxRowsInto(logits): the input AddFairnessPenalty
/// takes.
double FusedSoftmaxCrossEntropy(const Matrix& logits,
                                const std::vector<int>& labels,
                                Matrix* dlogits, Matrix* proba = nullptr);

/// Configuration of the fairness regularizer of Eqs. 8-9:
///   L_total = L_CE + mu * (L_fair - epsilon),  L_fair = [v(D, theta)]_+.
struct FairnessPenaltyConfig {
  FairnessNotion notion = FairnessNotion::kDdp;
  /// Trade-off weight mu of Eq. 9.
  double mu = 1.0;
  /// Constraint slack epsilon of Eq. 9: violations below epsilon are free.
  double epsilon = 0.01;
  /// When true, penalize |v| (both directions of disparity) via
  /// [|v| - epsilon]_+; when false, use the paper's literal [v]_+ - epsilon.
  /// Symmetric is the default because DDP is a magnitude.
  bool symmetric = true;
};

/// Evaluates the fairness penalty on a batch from its row softmax `proba`
/// (FusedSoftmaxCrossEntropy's `proba` output, or SoftmaxRowsInto of the
/// logits) and accumulates its gradient w.r.t. the logits (scaled by mu)
/// into *dlogits, which must already hold the cross-entropy gradient with
/// matching shape. The score h(x, theta) is the softmax probability of
/// class 1, so this requires num_classes == 2.
///
/// Returns the penalty value added to the total loss. Returns an error when
/// the batch cannot support the notion (e.g. a sensitive group is absent) —
/// callers typically skip the penalty for that batch.
///
/// When `workspace` is non-null the coefficient vector lives in the arena
/// buffer "loss.fair_coeffs" and the call is allocation-free once its
/// capacity is warm; results are bitwise identical either way.
Result<double> AddFairnessPenalty(const Matrix& proba,
                                  const std::vector<int>& labels,
                                  const std::vector<int>& sensitive,
                                  const FairnessPenaltyConfig& config,
                                  Matrix* dlogits,
                                  Workspace* workspace = nullptr);

/// Convenience: mean negative log-likelihood of the true labels under the
/// softmax (no gradient); used for regret tracking.
double SoftmaxNll(const Matrix& logits, const std::vector<int>& labels);

}  // namespace faction

#endif  // FACTION_NN_LOSS_H_
