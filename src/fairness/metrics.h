#ifndef FACTION_FAIRNESS_METRICS_H_
#define FACTION_FAIRNESS_METRICS_H_

#include <vector>

#include "common/status.h"

namespace faction {

/// Group-fairness evaluation metrics from Sec. V-A of the paper. All three
/// compare binary predictions yhat against the binary sensitive attribute s
/// (and, for EOD, the ground-truth label y). Lower absolute value is better.

/// Difference of Demographic Parity:
///   DDP = | P(yhat=1 | s=+1) - P(yhat=1 | s=-1) |.
/// Groups with no members contribute rate 0 (and the result is flagged by
/// returning an error when either group is empty, since the metric is then
/// undefined).
Result<double> DemographicParityDifference(const std::vector<int>& yhat,
                                           const std::vector<int>& sensitive);

/// Equalized Odds Difference: the maximum over y in {0,1} of the cross-group
/// gap in P(yhat=1 | y, s), i.e. max(TPR gap, FPR gap) (Hardt et al.).
/// Conditioning cells with no members are skipped; an error is returned when
/// no cell is comparable.
Result<double> EqualizedOddsDifference(const std::vector<int>& yhat,
                                       const std::vector<int>& labels,
                                       const std::vector<int>& sensitive);

/// Mutual information I(yhat; s) in nats between the prediction and the
/// sensitive attribute, estimated from empirical counts. Zero iff the
/// empirical joint factorizes.
Result<double> MutualInformation(const std::vector<int>& yhat,
                                 const std::vector<int>& sensitive);

/// Classification accuracy = mean(yhat == y).
Result<double> Accuracy(const std::vector<int>& yhat,
                        const std::vector<int>& labels);

}  // namespace faction

#endif  // FACTION_FAIRNESS_METRICS_H_
