// FACTION_HOT: SelectBatch's scoring region runs under the count-mode
// allocation ban every acquisition; allocating idioms here are lint
// findings (tools/lint.py no-alloc-in-hot, DESIGN.md §13). Density
// (re)fitting and the degenerate-pool fallbacks sit inside FACTION_COLD
// fences — they are per-round or off the steady state by design.
#include "core/faction_strategy.h"

#include <algorithm>

#include "common/alloc_audit.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "stream/selection.h"

namespace faction {

// FACTION_COLD_BEGIN: one-time construction.
FactionStrategy::FactionStrategy(const FactionStrategyConfig& config)
    : config_(config),
      density_(config.density_window, config.density_decay,
               config.covariance),
      workspace_(std::make_unique<Workspace>()) {}
// FACTION_COLD_END

std::string FactionStrategy::name() const {
  if (!config_.name_override.empty()) return config_.name_override;
  return config_.fair_select ? "FACTION" : "FACTION(w/o fair select)";
}

// FACTION_COLD_BEGIN: density maintenance — incremental folds amortize over
// the resync interval and full refits over a round; both allocate.
const FairDensityEstimator* FactionStrategy::EstimatorFor(
    const SelectionContext& context) {
  const Dataset& pool = *context.labeled_pool;
  const DensityWindow::Embed embed = [&](const Matrix& x) {
    return context.model->ExtractFeatures(x);
  };
  const bool need_full =
      !config_.incremental_density || density_.estimator() == nullptr ||
      pool.size() < fitted_rows_ ||
      updates_since_fit_ >= config_.density_resync_interval;
  if (!need_full) {
    // Fold only the rows labeled since the last fit (none when the pool is
    // unchanged), embedded in the *current* feature space. Rows absorbed
    // earlier keep their older embeddings — the staleness the resync
    // interval bounds.
    if (pool.size() == fitted_rows_) return density_.estimator();
    const Status updated = density_.FoldRows(pool, fitted_rows_, embed);
    if (updated.ok()) {
      fitted_rows_ = pool.size();
      ++updates_since_fit_;
      TelemetryCount("faction.density_incremental_refit");
      return density_.estimator();
    }
    // A failed fold dropped the partially folded estimator: resync with a
    // full batch fit below.
    FACTION_LOG(kWarning) << "FACTION incremental density update failed ("
                          << updated.ToString()
                          << "); falling back to full refit";
  }

  // Full fit: the whole pool, or exactly its last density_window rows —
  // the oracle the incremental evict/fold path is parity-tested against.
  const Status fit = density_.Refit(pool, embed);
  if (!fit.ok()) {
    FACTION_LOG(kWarning) << "FACTION density fit failed (" << fit.ToString()
                          << "); falling back to random batch";
    TelemetryCount("faction.density_fit_failed");
    density_.Reset();
    fitted_rows_ = 0;
    updates_since_fit_ = 0;
    return nullptr;
  }
  fitted_rows_ = pool.size();
  updates_since_fit_ = 0;
  TelemetryCount("faction.density_full_refit");
  return density_.estimator();
}
// FACTION_COLD_END

Result<std::vector<std::size_t>> FactionStrategy::SelectBatch(
    const SelectionContext& context, std::size_t batch) {
  ScopedTimer select_timer("faction.select.seconds");
  const Dataset& pool = *context.labeled_pool;
  const Matrix& candidates = *context.candidate_features;
  const std::size_t n = candidates.rows();
  if (n == 0) return std::vector<std::size_t>{};
  if (pool.empty()) {
    // FACTION_COLD_BEGIN: no labeled data yet — nothing to fit a density
    // on; fall back to a uniform random batch (warm_start = 0 only).
    std::vector<std::size_t> perm;
    context.rng->Permutation(n, &perm);
    perm.resize(std::min(batch, n));
    return perm;
    // FACTION_COLD_END
  }

  // Density estimator in the feature space of the current extractor
  // r(., theta_temp) — batch-fitted or incrementally refreshed depending
  // on the config.
  const FairDensityEstimator* est = EstimatorFor(context);
  if (est == nullptr) {
    // FACTION_COLD_BEGIN: degenerate pool (e.g. a single class so far) —
    // fall back to random acquisition rather than failing the run.
    std::vector<std::size_t> perm;
    context.rng->Permutation(n, &perm);
    perm.resize(std::min(batch, n));
    return perm;
    // FACTION_COLD_END
  }

  {
    // Scoring is the steady-state region of a round: every temporary is
    // member scratch or an arena buffer, so once shapes are warm this
    // block performs no heap allocation (violations are tallied to
    // alloc.steady_state_* by the count-mode ban). The Bernoulli draw
    // below builds the returned index vector and stays outside the ban.
    ScopedAllocationBan ban("faction.select",
                            ScopedAllocationBan::Mode::kCount);
    Workspace& ws = *workspace_;
    Matrix* cand_z =
        ws.MatrixFor("faction.cand_z", n, context.model->feature_dim());
    Matrix* proba =
        ws.MatrixFor("faction.cand_proba", n, context.model->num_classes());
    context.model->ExtractFeaturesAndProbaInto(candidates, &ws, cand_z,
                                               proba);
    // Scores the whole candidate pool in one batched, parallel pass (see
    // core/fair_score.cc); bitwise deterministic for any thread count.
    FACTION_RETURN_IF_ERROR(ComputeFactionScoresInto(
        *est, *cand_z, *proba, config_.lambda, config_.fair_select,
        &score_scratch_, &scores_));

    // Eq. 7: omega(x) = 1 - Normalize(u(x)); lower u = higher probability.
    u_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) u_scratch_[i] = scores_[i].u;
    MinMaxNormalizeInto(u_scratch_, &selection_scratch_.normalized);
  }
  std::vector<double>& omega = selection_scratch_.normalized;
  for (double& w : omega) w = 1.0 - w;

  return BernoulliSelect(omega, config_.alpha, batch, context.rng,
                         &selection_scratch_);
}

}  // namespace faction
