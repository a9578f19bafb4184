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
    : config_(config), workspace_(std::make_unique<Workspace>()) {
  FACTION_CHECK(config_.density_decay > 0.0 && config_.density_decay <= 1.0);
  if (config_.density_window > 0 || config_.density_decay < 1.0) {
    // Windowed/decayed estimators need the rank-1-maintainable ridge
    // regularization (DESIGN.md §15).
    config_.covariance.forgetting = true;
  }
}
// FACTION_COLD_END

std::string FactionStrategy::name() const {
  if (!config_.name_override.empty()) return config_.name_override;
  return config_.fair_select ? "FACTION" : "FACTION(w/o fair select)";
}

// FACTION_COLD_BEGIN: density maintenance — incremental folds amortize over
// the resync interval and full refits over a round; both allocate.
Status FactionStrategy::FoldOne(const double* z, int label, int sensitive) {
  if (config_.density_decay < 1.0) {
    estimator_->Decay(config_.density_decay);
    for (std::size_t i = 0; i < ring_size_; ++i) {
      ring_weight_[(ring_start_ + i) % config_.density_window] *=
          config_.density_decay;
    }
  }
  if (config_.density_window > 0 && ring_size_ >= config_.density_window) {
    // Evict the oldest folded embedding (rank-1 downdate at its decayed
    // weight) before absorbing the new one.
    const std::size_t slot = ring_start_;
    ring_start_ = (ring_start_ + 1) % config_.density_window;
    --ring_size_;
    FACTION_RETURN_IF_ERROR(estimator_->DowndateOne(
        ring_z_.row_data(slot), ring_label_[slot], ring_sensitive_[slot],
        config_.covariance, ring_weight_[slot]));
    TelemetryCount("faction.window_evictions");
  }
  FACTION_RETURN_IF_ERROR(
      estimator_->UpdateOne(z, label, sensitive, config_.covariance));
  if (config_.density_window > 0) {
    const std::size_t slot =
        (ring_start_ + ring_size_) % config_.density_window;
    std::copy(z, z + ring_z_.cols(), ring_z_.row_data(slot));
    ring_label_[slot] = label;
    ring_sensitive_[slot] = sensitive;
    ring_weight_[slot] = 1.0;
    ++ring_size_;
  }
  return Status::Ok();
}

const FairDensityEstimator* FactionStrategy::EstimatorFor(
    const SelectionContext& context) {
  const Dataset& pool = *context.labeled_pool;
  bool need_full = !config_.incremental_density || !estimator_.has_value() ||
                   pool.size() < fitted_rows_ ||
                   updates_since_fit_ >= config_.density_resync_interval;
  if (!need_full) {
    if (pool.size() == fitted_rows_) {
      // Pool unchanged since the last (re)fit: the cache is current.
      return &estimator_.value();
    }
    // Fold only the rows labeled since the last fit, embedded in the
    // *current* feature space. Rows absorbed earlier keep their older
    // embeddings — the staleness the resync interval bounds.
    const std::size_t added = pool.size() - fitted_rows_;
    Matrix fresh(added, pool.dim());
    std::vector<int> labels(added), sensitive(added);
    for (std::size_t i = 0; i < added; ++i) {
      const std::size_t idx = fitted_rows_ + i;
      std::copy(pool.features().row_data(idx),
                pool.features().row_data(idx) + pool.dim(),
                fresh.row_data(i));
      labels[i] = pool.labels()[idx];
      sensitive[i] = pool.sensitive()[idx];
    }
    const Matrix fresh_z = context.model->ExtractFeatures(fresh);
    Status updated = Status::Ok();
    if (config_.density_window == 0 && config_.density_decay >= 1.0) {
      // Grow-only path: one batched fold (bitwise-unchanged legacy).
      updated =
          estimator_->Update(fresh_z, labels, sensitive, config_.covariance);
    } else {
      // Window/decay discipline is per row: decay, evict-if-full, fold.
      for (std::size_t i = 0; i < added && updated.ok(); ++i) {
        updated = FoldOne(fresh_z.row_data(i), labels[i], sensitive[i]);
      }
    }
    if (updated.ok()) {
      fitted_rows_ = pool.size();
      ++updates_since_fit_;
      TelemetryCount("faction.density_incremental_refit");
      return &estimator_.value();
    }
    // A failed update leaves the statistics partially folded: discard the
    // cache and resync with a full batch fit below.
    FACTION_LOG(kWarning) << "FACTION incremental density update failed ("
                          << updated.ToString()
                          << "); falling back to full refit";
    need_full = true;
  }

  Result<FairDensityEstimator> fit = [&]() -> Result<FairDensityEstimator> {
    if (config_.density_window == 0) {
      const Matrix pool_z = context.model->ExtractFeatures(pool.features());
      return FairDensityEstimator::Fit(pool_z, pool.labels(),
                                       pool.sensitive(), config_.covariance);
    }
    // Windowed batch fit: exactly the last min(W, pool) labeled rows,
    // embedded by the current extractor — the oracle the incremental
    // evict/fold path is parity-tested against. The ring re-seeds from
    // the same embeddings at unit weight.
    const std::size_t wn = std::min(config_.density_window, pool.size());
    const std::size_t first = pool.size() - wn;
    Matrix wx(wn, pool.dim());
    std::vector<int> wlabels(wn), wsensitive(wn);
    for (std::size_t i = 0; i < wn; ++i) {
      std::copy(pool.features().row_data(first + i),
                pool.features().row_data(first + i) + pool.dim(),
                wx.row_data(i));
      wlabels[i] = pool.labels()[first + i];
      wsensitive[i] = pool.sensitive()[first + i];
    }
    const Matrix wz = context.model->ExtractFeatures(wx);
    Result<FairDensityEstimator> windowed = FairDensityEstimator::Fit(
        wz, wlabels, wsensitive, config_.covariance);
    if (windowed.ok()) {
      if (ring_z_.rows() != config_.density_window) {
        ring_z_ = Matrix(config_.density_window, wz.cols());
        ring_label_.assign(config_.density_window, 0);
        ring_sensitive_.assign(config_.density_window, 0);
        ring_weight_.assign(config_.density_window, 0.0);
      }
      ring_start_ = 0;
      ring_size_ = 0;
      for (std::size_t i = 0; i < wn; ++i) {
        std::copy(wz.row_data(i), wz.row_data(i) + wz.cols(),
                  ring_z_.row_data(i));
        ring_label_[i] = wlabels[i];
        ring_sensitive_[i] = wsensitive[i];
        ring_weight_[i] = 1.0;
        ++ring_size_;
      }
    }
    return windowed;
  }();
  if (!fit.ok()) {
    FACTION_LOG(kWarning) << "FACTION density fit failed ("
                          << fit.status().ToString()
                          << "); falling back to random batch";
    TelemetryCount("faction.density_fit_failed");
    estimator_.reset();
    fitted_rows_ = 0;
    updates_since_fit_ = 0;
    return nullptr;
  }
  estimator_ = std::move(fit).value();
  fitted_rows_ = pool.size();
  updates_since_fit_ = 0;
  TelemetryCount("faction.density_full_refit");
  return &estimator_.value();
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
