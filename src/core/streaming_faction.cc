// FACTION_HOT: the per-arrival path (ShouldQuery + non-refit ProvideLabel)
// is the hard-zero steady state of DESIGN.md §13; allocating idioms here
// are lint findings (tools/lint.py no-alloc-in-hot). Per-round work
// (constructor, Refit) sits inside FACTION_COLD fences.
#include "core/streaming_faction.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "common/alloc_audit.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "tensor/ops.h"

namespace faction {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// log |e^a - e^b|, stable; mirrors the batch scorer's helper.
double LogAbsExpDiff(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    if (std::isfinite(a)) return a;
    if (std::isfinite(b)) return b;
    return kNegInf;
  }
  const double hi = std::max(a, b);
  const double gap = std::fabs(a - b);
  if (gap < 1e-300) return kNegInf;
  return hi + std::log1p(-std::exp(-gap));
}

}  // namespace

// FACTION_COLD_BEGIN: one-time construction.
StreamingFaction::StreamingFaction(const StreamingFactionConfig& config)
    : config_(config),
      rng_(config.seed),
      pool_(config.model.input_dim),
      train_workspace_(std::make_unique<Workspace>()) {
  FACTION_CHECK(config_.density_decay > 0.0 && config_.density_decay <= 1.0);
  if (config_.density_window > 0 || config_.density_decay < 1.0) {
    // Windowed/decayed estimators need the rank-1-maintainable ridge
    // regularization (DESIGN.md §15); shrinkage would force a refactor
    // per eviction.
    config_.covariance.forgetting = true;
  }
  Rng model_rng = rng_.Fork();
  model_ = std::make_unique<MlpClassifier>(config_.model, &model_rng);
  if (config_.density_window > 0) {
    // Pre-size the eviction ring once: the steady-state evict ->
    // downdate -> fold path then never touches the heap.
    ring_z_ = Matrix(config_.density_window, model_->feature_dim());
    ring_label_.assign(config_.density_window, 0);
    ring_sensitive_.assign(config_.density_window, 0);
    ring_weight_.assign(config_.density_window, 0.0);
  }
}
// FACTION_COLD_END

void StreamingFaction::EvictOldest() {
  const std::size_t slot = ring_start_;
  const Status evicted = estimator_->DowndateOne(
      ring_z_.row_data(slot), ring_label_[slot], ring_sensitive_[slot],
      config_.covariance, ring_weight_[slot]);
  ring_start_ = (ring_start_ + 1) % config_.density_window;
  --ring_size_;
  if (evicted.ok()) {
    TelemetryCount("streaming.window_evictions");
  } else {
    // Error reporting is off the steady-state path.
    ScopedAllocationAllow allow_error_report;
    TelemetryCount("streaming.window_evict_failed");
    FACTION_LOG(kWarning) << "StreamingFaction: window eviction failed ("
                          << evicted.ToString() << "); awaiting full refit";
    estimator_.reset();
  }
}

void StreamingFaction::RingPush(const double* z, int label, int sensitive) {
  const std::size_t slot =
      (ring_start_ + ring_size_) % config_.density_window;
  std::copy(z, z + ring_z_.cols(), ring_z_.row_data(slot));
  ring_label_[slot] = label;
  ring_sensitive_[slot] = sensitive;
  ring_weight_[slot] = 1.0;
  ++ring_size_;
}

double StreamingFaction::ScoreSample(const std::vector<double>& x) {
  // Every temporary is a named arena buffer: once the shapes are warm a
  // call performs no heap allocation (the per-arrival zero-alloc gate of
  // DESIGN.md §13 asserts exactly this).
  Workspace& ws = *train_workspace_;
  Matrix* x_row = ws.MatrixFor("streaming.x_row", 1, x.size());
  std::copy(x.begin(), x.end(), x_row->row_data(0));
  Matrix* z = ws.MatrixFor("streaming.z_row", 1, model_->feature_dim());
  Matrix* proba =
      ws.MatrixFor("streaming.proba", 1, model_->num_classes());
  model_->ExtractFeaturesAndProbaInto(*x_row, &ws, z, proba);
  const double* zv = z->row_data(0);
  std::vector<double>* solve_scratch =
      ws.DoublesFor("streaming.solve_scratch", estimator_->dim());
  const double log_density =
      estimator_->LogMarginalDensity(zv, solve_scratch->data());
  // log sum_c p_c * Delta g_c(z).
  std::array<double, FairDensityEstimator::kNumClasses> terms;
  std::size_t nt = 0;
  for (int c = 0; c < FairDensityEstimator::kNumClasses; ++c) {
    double lp = 0.0, ln = 0.0;
    estimator_->ComponentLogDensities(zv, c, solve_scratch->data(), &lp,
                                      &ln);
    const double log_delta = LogAbsExpDiff(lp, ln);
    const double pc = (*proba)(0, static_cast<std::size_t>(c));
    if (std::isfinite(log_delta) && pc > 1e-12) {
      terms[nt++] = std::log(pc) + log_delta;
    }
  }
  const double log_unfair =
      nt == 0 ? kNegInf : LogSumExp(terms.data(), nt);
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
  if (!estimator_.has_value()) {
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
  if (labels_since_refit_ >= config_.refit_interval ||
      (!trained_once_ && pool_.size() >= config_.warm_start)) {
    FACTION_RETURN_IF_ERROR(Refit());
    labels_since_refit_ = 0;
    return Status::Ok();
  }
  if (config_.incremental_density && estimator_.has_value()) {
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
    if (config_.density_decay < 1.0) {
      // Exponential forgetting: fade every absorbed label (an O(d)
      // statistics rescale per component — factors untouched) and the
      // ring's per-row weights, so a later eviction removes exactly the
      // mass the row still carries.
      estimator_->Decay(config_.density_decay);
      for (std::size_t i = 0; i < ring_size_; ++i) {
        ring_weight_[(ring_start_ + i) % config_.density_window] *=
            config_.density_decay;
      }
    }
    if (config_.density_window > 0 &&
        ring_size_ >= config_.density_window) {
      // Sliding window: evict the oldest folded embedding (rank-1
      // downdate) before absorbing the new one.
      EvictOldest();
      if (!estimator_.has_value()) return Status::Ok();
    }
    const Status updated =
        estimator_->UpdateOne(z->row_data(0), example.label,
                              example.sensitive, config_.covariance);
    if (updated.ok()) {
      TelemetryCount("streaming.incremental_fold");
      if (config_.density_window > 0) {
        RingPush(z->row_data(0), example.label, example.sensitive);
      }
    } else {
      // Error reporting is off the steady-state path; exempt it from the
      // ban so the message assembly does not count as a violation.
      ScopedAllocationAllow allow_error_report;
      TelemetryCount("streaming.incremental_fold_failed");
      // Partially folded statistics are unusable; drop the estimator and
      // let the next scheduled Refit rebuild it.
      FACTION_LOG(kWarning)
          << "StreamingFaction: incremental density update failed ("
          << updated.ToString() << "); awaiting full refit";
      estimator_.reset();
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
  Result<FairDensityEstimator> fit = [&]() -> Result<FairDensityEstimator> {
    if (config_.density_window == 0) {
      const Matrix pool_z = model_->ExtractFeatures(pool_.features());
      return FairDensityEstimator::Fit(pool_z, pool_.labels(),
                                       pool_.sensitive(), config_.covariance);
    }
    // Windowed: the density sees only the last min(W, pool) labels,
    // embedded fresh by the retrained extractor. The ring re-seeds from
    // the same embeddings at unit weight — the batch fit re-absorbs each
    // window row at weight 1, which resets any accumulated decay.
    const std::size_t wn = std::min(config_.density_window, pool_.size());
    const std::size_t first = pool_.size() - wn;
    Matrix wx(wn, pool_.dim());
    std::vector<int> wlabels(wn), wsensitive(wn);
    for (std::size_t i = 0; i < wn; ++i) {
      std::copy(pool_.features().row_data(first + i),
                pool_.features().row_data(first + i) + pool_.dim(),
                wx.row_data(i));
      wlabels[i] = pool_.labels()[first + i];
      wsensitive[i] = pool_.sensitive()[first + i];
    }
    const Matrix wz = model_->ExtractFeatures(wx);
    Result<FairDensityEstimator> windowed = FairDensityEstimator::Fit(
        wz, wlabels, wsensitive, config_.covariance);
    if (windowed.ok()) {
      ring_start_ = 0;
      ring_size_ = 0;
      for (std::size_t i = 0; i < wn; ++i) {
        RingPush(wz.row_data(i), wlabels[i], wsensitive[i]);
      }
    }
    return windowed;
  }();
  if (fit.ok()) {
    estimator_ = std::move(fit).value();
    // Scores live in the new feature space: the old range is stale.
    normalizer_.Reset();
  } else {
    TelemetryCount("streaming.refit_density_failed");
    FACTION_LOG(kWarning) << "StreamingFaction: density refit failed ("
                          << fit.status().ToString() << ")";
  }
  // Pre-grow the pool so the appends until the next refit stay
  // allocation-free. This must come after the features() call above:
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
