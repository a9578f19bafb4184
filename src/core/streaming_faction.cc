// FACTION_HOT: the per-arrival path (ShouldQuery + non-refit ProvideLabel)
// is the hard-zero steady state of DESIGN.md §13; allocating idioms here
// are lint findings (tools/lint.py no-alloc-in-hot). Per-round work
// (constructor, Refit) sits inside FACTION_COLD fences.
#include "core/streaming_faction.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/alloc_audit.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "core/fair_score.h"

namespace faction {

// FACTION_COLD_BEGIN: one-time construction.
StreamingFaction::StreamingFaction(const StreamingFactionConfig& config)
    : config_(config),
      rng_(config.seed),
      model_([this] {
        Rng model_rng = rng_.Fork();
        return std::make_unique<MlpClassifier>(config_.model, &model_rng);
      }()),
      pool_(config.model.input_dim),
      density_(config.density_window, config.density_decay,
               config.covariance, model_->feature_dim()),
      train_workspace_(std::make_unique<Workspace>()) {
  // A window or decay implies forgetting-mode covariance; the codec
  // captures the effective configuration.
  config_.covariance = density_.covariance();
}
// FACTION_COLD_END

double StreamingFaction::ScoreSample(const std::vector<double>& x) {
  // Every temporary is a named arena buffer: once the shapes are warm a
  // call performs no heap allocation (the per-arrival zero-alloc gate of
  // DESIGN.md §13 asserts exactly this).
  const FairDensityEstimator& est = *density_.estimator();
  Workspace& ws = *train_workspace_;
  Matrix* x_row = ws.MatrixFor("streaming.x_row", 1, x.size());
  std::copy(x.begin(), x.end(), x_row->row_data(0));
  Matrix* z = ws.MatrixFor("streaming.z_row", 1, model_->feature_dim());
  Matrix* proba =
      ws.MatrixFor("streaming.proba", 1, model_->num_classes());
  model_->ExtractFeaturesAndProbaInto(*x_row, &ws, z, proba);
  // One solve per component, shared by the marginal and the unfairness
  // term — the same row combine as the batch scorer.
  std::vector<double>* scratch =
      ws.DoublesFor("streaming.solve_scratch", est.dim());
  std::vector<double>* row =
      ws.DoublesFor("streaming.component_row", est.num_components());
  std::vector<double>* terms = ws.DoublesFor(
      "streaming.class_terms",
      static_cast<std::size_t>(est.domain().num_classes));
  est.ComponentLogPdfRow(z->row_data(0), scratch->data(), row->data());
  const double log_density = est.LogMarginalFromRow(row->data());
  const double log_unfair =
      LogUnfairness(est, row->data(), proba->row_data(0), terms->data());
  // Combine in the log domain; the incremental normalizer downstream
  // performs the range normalization Eq. 7 needs. Missing unfairness
  // signal contributes nothing.
  double u = std::isfinite(log_density) ? log_density : -1e3;
  if (std::isfinite(log_unfair)) u -= config_.lambda * log_unfair;
  return u;
}

Result<bool> StreamingFaction::ShouldQuery(const Example& example) {
  if (example.x.size() != config_.model.input_dim) {
    return Status::InvalidArgument(
        "StreamingFaction: sample dimension mismatch");
  }
  ++seen_;
  TelemetryCount("streaming.arrivals");
  // Warm start: always acquire until the pool can support the machinery.
  if (queried_ < config_.warm_start) {
    ++queried_;
    TelemetryCount("streaming.queries");
    TelemetryCount("streaming.warm_start_queries");
    return true;
  }
  if (!has_estimator()) {
    // Machinery not ready (e.g. refit failed on a degenerate pool): fall
    // back to a fixed-rate coin matching alpha's scale.
    TelemetryCount("streaming.fallback_coin");
    const bool take = rng_.Bernoulli(std::min(1.0, config_.alpha * 0.25));
    if (take) {
      ++queried_;
      TelemetryCount("streaming.queries");
    }
    return take;
  }
  const bool warmed = normalizer_.count() >= config_.burn_in;
  // Post-warmup arrivals are the steady state: score -> normalize ->
  // Bernoulli must not touch the heap. Burn-in arrivals warm the arena
  // shapes and stay exempt; afterwards violations are tallied to
  // alloc.steady_state_* rather than aborting (the CI gate asserts the
  // tallies stay at zero).
  std::optional<ScopedAllocationBan> ban;
  if (warmed) {
    ban.emplace("streaming.should_query",
                ScopedAllocationBan::Mode::kCount);
  }
  const double u = ScoreSample(example.x);
  const double omega = 1.0 - normalizer_.Normalize(u);
  normalizer_.Observe(u);
  if (!warmed) return false;
  const bool take =
      rng_.Bernoulli(std::min(config_.alpha * omega, 1.0));
  if (take) {
    ++queried_;
    TelemetryCount("streaming.queries");
  }
  return take;
}

Status StreamingFaction::ProvideLabel(const Example& example) {
  FACTION_RETURN_IF_ERROR(pool_.Append(example));
  ++labels_since_refit_;
  // The warm-start refit is due once the pool holds warm_start labels and
  // no refit has been attempted: until the first attempt, every pooled
  // label is counted in labels_since_refit_. Every attempt restarts the
  // count, a failed one too, so a session whose training diverges retries
  // once per refit_interval labels instead of retraining on every label.
  const bool warm_start_due = !trained_once_ &&
                              labels_since_refit_ == pool_.size() &&
                              pool_.size() >= config_.warm_start;
  if (labels_since_refit_ >= config_.refit_interval || warm_start_due) {
    labels_since_refit_ = 0;
    return Refit();
  }
  if (config_.incremental_density && has_estimator()) {
    // Fold the fresh label into the density estimator right away (O(d^2)
    // sufficient-statistics update) so acquisition decisions between full
    // refits see every label bought so far, not a frozen snapshot. Like
    // the scoring path, the fold is steady state: arena-backed feature
    // extraction plus an in-place sufficient-statistics refresh, with the
    // count-mode ban guarding against regressions. The ban shares
    // ShouldQuery's burn-in exemption: a fold can run before any scored
    // arrival (an early interval refit precedes warm-start completion),
    // and that first fold legitimately creates the arena buffers the
    // scoring path would otherwise have warmed.
    std::optional<ScopedAllocationBan> ban;
    if (normalizer_.count() >= config_.burn_in) {
      ban.emplace("streaming.fold", ScopedAllocationBan::Mode::kCount);
    }
    Workspace& ws = *train_workspace_;
    Matrix* x_row = ws.MatrixFor("streaming.x_row", 1, example.x.size());
    std::copy(example.x.begin(), example.x.end(), x_row->row_data(0));
    Matrix* z = ws.MatrixFor("streaming.z_row", 1, model_->feature_dim());
    model_->ExtractFeaturesInto(*x_row, &ws, z);
    // Decay, evict the oldest row past the window, fold.
    const Status folded =
        density_.Fold(z->row_data(0), example.label, example.sensitive);
    if (folded.ok()) {
      TelemetryCount("streaming.incremental_fold");
    } else {
      // Error reporting is off the steady-state path; exempt it from the
      // ban so the message assembly does not count as a violation. The
      // failed fold dropped the estimator; the next scheduled Refit
      // rebuilds it.
      ScopedAllocationAllow allow_error_report;
      TelemetryCount("streaming.incremental_fold_failed");
      FACTION_LOG(kWarning)
          << "StreamingFaction: incremental density update failed ("
          << folded.ToString() << "); awaiting full refit";
    }
  }
  return Status::Ok();
}

// FACTION_COLD_BEGIN: Refit amortizes over refit_interval arrivals and
// Predict is an evaluation entry point — both off the steady state.
Status StreamingFaction::Refit() {
  ScopedTimer refit_timer("streaming.refit.seconds");
  TelemetryCount("streaming.refit");
  FACTION_RETURN_IF_ERROR(
      TrainClassifier(model_.get(), pool_, config_.train, &rng_,
                      train_workspace_.get())
          .status());
  trained_once_ = true;
  // The whole pool, or its last density_window labels, embedded fresh by
  // the retrained extractor.
  const Status fit = density_.Refit(
      pool_, [&](const Matrix& x) { return model_->ExtractFeatures(x); });
  if (fit.ok()) {
    // Scores live in the new feature space: the old range is stale.
    normalizer_.Reset();
  } else {
    TelemetryCount("streaming.refit_density_failed");
    FACTION_LOG(kWarning) << "StreamingFaction: density refit failed ("
                          << fit.ToString() << ")";
  }
  // Pre-grow the pool so the appends until the next refit stay
  // allocation-free. This must come after the refit's features() call:
  // features() compacts the matrix and would discard the spare rows.
  pool_.Reserve(pool_.size() + config_.refit_interval + 1);
  return Status::Ok();
}

Result<int> StreamingFaction::Predict(const std::vector<double>& x) const {
  if (x.size() != config_.model.input_dim) {
    return Status::InvalidArgument("StreamingFaction: dimension mismatch");
  }
  return model_->Predict(Matrix::FromRowVector(x))[0];
}
// FACTION_COLD_END

}  // namespace faction
