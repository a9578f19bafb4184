#ifndef FACTION_CORE_FACTION_STRATEGY_H_
#define FACTION_CORE_FACTION_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/workspace.h"

#include "core/fair_score.h"
#include "density/density_window.h"
#include "density/fair_density.h"
#include "density/gaussian.h"
#include "stream/selection.h"
#include "stream/strategy.h"

namespace faction {

/// Configuration of the FACTION query strategy (Sec. IV-C/IV-D).
struct FactionStrategyConfig {
  /// lambda of Eq. 6: trade-off between epistemic uncertainty g(z) and the
  /// weighted unfairness term.
  double lambda = 1.0;
  /// alpha of Algorithm 1 line 29: query-rate multiplier in the Bernoulli
  /// trials.
  double alpha = 3.0;
  /// Ablation switch: with false, the Delta g_c term is dropped from u(x)
  /// ("w/o Fair Select").
  bool fair_select = true;
  /// Covariance regularization for the GDA components.
  CovarianceConfig covariance;
  /// When true (the default), the GDA estimator is refitted incrementally
  /// between acquisition rounds: only the features of rows labeled since
  /// the last fit are extracted and folded into the per-component
  /// sufficient statistics (O(new * d^2) plus one Cholesky per touched
  /// component), instead of re-extracting and re-scanning the whole pool.
  /// Old rows keep the feature embedding they had when absorbed, so the
  /// estimator drifts from the retrained extractor; a full refit every
  /// `density_resync_interval` rounds bounds that staleness. With false,
  /// every round performs the batch fit (the parity oracle).
  bool incremental_density = true;
  /// Incremental rounds between full batch refits (staleness bound).
  std::size_t density_resync_interval = 8;
  /// Sliding window over the density estimator (DESIGN.md §15): when > 0,
  /// only the last `density_window` labeled rows contribute to the GDA
  /// components. The incremental path evicts the oldest folded embedding
  /// via a rank-1 Cholesky downdate (O(d^2)) per fold past the window;
  /// full (re)fits use exactly the window's rows — so with
  /// incremental_density = false every round is the windowed batch oracle
  /// the incremental path is parity-tested against. Implies
  /// forgetting-mode covariance. 0 disables.
  std::size_t density_window = 0;
  /// Exponential forgetting: each folded row first scales the estimator's
  /// absorbed mass by this factor (factors untouched). In (0, 1]; 1
  /// disables. Composes with `density_window` (evictions use decayed
  /// weights). Also implies forgetting-mode covariance.
  double density_decay = 1.0;
  /// Optional display-name override (used by the ablation benches).
  std::string name_override;
};

/// FACTION's sample selection: fit the (class x sensitive) GDA density
/// estimator on the labeled pool's feature space, score every candidate by
/// Eq. 6, convert to probabilities via Eq. 7, and acquire with Bernoulli
/// trials (Algorithm 1 lines 19-36).
///
/// The fairness *regularizer* half of FACTION lives in the learner's
/// TrainConfig (use_fairness_penalty); see MakeFactionLearnerConfig in
/// core/presets.h for the standard pairing.
class FactionStrategy : public QueryStrategy {
 public:
  explicit FactionStrategy(const FactionStrategyConfig& config);

  std::string name() const override;

  Result<std::vector<std::size_t>> SelectBatch(
      const SelectionContext& context, std::size_t batch) override;

 private:
  /// Returns the estimator to score with: the incremental path folds newly
  /// labeled rows into the maintained estimator, falling back to (and
  /// periodically resyncing with) the full batch fit. Returns nullptr when
  /// no estimator can be fitted (degenerate pool) — callers fall back to
  /// random acquisition.
  const FairDensityEstimator* EstimatorFor(const SelectionContext& context);

  FactionStrategyConfig config_;
  // The estimator under the window/decay discipline, how many pool rows it
  // has absorbed, and how many incremental rounds since the last full fit.
  DensityWindow density_;
  std::size_t fitted_rows_ = 0;
  std::size_t updates_since_fit_ = 0;
  // Per-iteration scoring/selection buffers, reused across SelectBatch
  // calls so steady-state acquisition allocates only the returned indices.
  // The workspace arena holds the candidate feature/probability matrices
  // (unique_ptr so the strategy stays movable); scores_ keeps its capacity
  // across rounds.
  FactionScoreScratch score_scratch_;
  SelectionScratch selection_scratch_;
  std::vector<double> u_scratch_;
  std::vector<FactionScore> scores_;
  std::unique_ptr<Workspace> workspace_;
};

}  // namespace faction

#endif  // FACTION_CORE_FACTION_STRATEGY_H_
