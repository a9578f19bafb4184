#ifndef FACTION_BASELINES_DISENTANGLED_STRATEGY_H_
#define FACTION_BASELINES_DISENTANGLED_STRATEGY_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "stream/strategy.h"

namespace faction {

/// Configuration of the disentangled global/environment-specific probe.
struct DisentangledConfig {
  /// Full-batch gradient-descent passes over the labeled pool per
  /// acquisition iteration (the probe is warm-started, so a few suffice).
  int epochs = 25;
  double learning_rate = 0.5;
  /// L2 shrinkage on the per-environment deltas. This is the
  /// disentangling force: structure shared across environments is cheaper
  /// to store in the global weights, so only genuinely environment-specific
  /// variation survives in the deltas.
  double delta_l2 = 0.05;
  /// Weight of the group-rebalancing multiplier on candidate scores:
  /// score *= 1 + boost * (underrepresentation of the candidate's group in
  /// the labeled pool). 0 disables fairness awareness.
  double fairness_boost = 0.5;
};

/// Disentangled acquisition probe: a linear-logistic model whose weights
/// split into a global component w shared by every environment and an
/// additive per-environment delta_e, trained jointly on the labeled pool
/// (gradients from environment e update both w and delta_e; L2 on delta_e
/// pushes shared structure into w). Candidates are scored by the margin
/// uncertainty of the composed model (w + delta_e of the candidate's own
/// environment — an unseen environment falls back to the pure global
/// model), multiplied by a group-underrepresentation weight; the batch is
/// the deterministic top-k. Both components persist and warm-start across
/// SelectBatch calls, so the global part accumulates cross-environment
/// knowledge while each delta tracks only its environment's quirks.
class DisentangledStrategy : public QueryStrategy {
 public:
  explicit DisentangledStrategy(const DisentangledConfig& config)
      : config_(config) {}

  std::string name() const override { return "Disentangled"; }

  Result<std::vector<std::size_t>> SelectBatch(
      const SelectionContext& context, std::size_t batch) override;

 private:
  DisentangledConfig config_;
  /// Global weights, size dim + 1 (last entry is the bias). Empty until
  /// the first SelectBatch with a non-empty pool.
  std::vector<double> global_;
  /// Per-environment additive deltas, same layout as global_.
  std::map<int, std::vector<double>> deltas_;
};

}  // namespace faction

#endif  // FACTION_BASELINES_DISENTANGLED_STRATEGY_H_
