#ifndef FACTION_BASELINES_BANDIT_STRATEGY_H_
#define FACTION_BASELINES_BANDIT_STRATEGY_H_

#include <array>
#include <string>

#include "stream/strategy.h"

namespace faction {

/// Configuration of the FALCON-style bandit acquisition strategy.
struct BanditConfig {
  /// UCB exploration coefficient (the bonus weight in front of
  /// sqrt(ln T / n_a)).
  double exploration = 1.0;
  /// Per-call discount applied to every arm's pull count and reward sum
  /// (discounted UCB, Garivier & Moulines). 1 = classical UCB1; values
  /// below 1 let arm statistics age out, which is what keeps the bandit
  /// responsive when an environment change flips which group is the more
  /// informative one.
  double discount = 0.98;
};

/// FALCON-style multi-armed-bandit acquisition: each sensitive group is an
/// arm, the payoff of pulling an arm is the (min-max normalized) predictive
/// entropy of the best remaining candidate in that group, and the batch is
/// assembled one pull at a time by discounted UCB. The bandit learns online
/// which group currently yields the most informative labels and shifts
/// budget there, while the UCB bonus keeps probing the other group — a
/// label-efficiency route to group balance that never hard-codes quotas.
/// Arm statistics persist across SelectBatch calls (and so across tasks).
/// Fully deterministic: ties break toward the s=+1 arm and lower candidate
/// index.
class BanditStrategy : public QueryStrategy {
 public:
  explicit BanditStrategy(const BanditConfig& config) : config_(config) {}

  std::string name() const override { return "Bandit"; }

  Result<std::vector<std::size_t>> SelectBatch(
      const SelectionContext& context, std::size_t batch) override;

 private:
  BanditConfig config_;
  /// Discounted arm statistics; index 0 = group s=+1, 1 = group s=-1.
  std::array<double, 2> pulls_ = {0.0, 0.0};
  std::array<double, 2> reward_sum_ = {0.0, 0.0};
};

}  // namespace faction

#endif  // FACTION_BASELINES_BANDIT_STRATEGY_H_
