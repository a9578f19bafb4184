// FACTION_HOT: Fold is the per-arrival evict -> downdate -> fold step of
// the windowed steady state (DESIGN.md §13/§15); allocating idioms here
// are lint findings (tools/lint.py no-alloc-in-hot). Construction and the
// batch refits sit inside FACTION_COLD fences.
#include "density/density_window.h"

#include <algorithm>

#include "common/alloc_audit.h"
#include "common/check.h"
#include "common/telemetry.h"

namespace faction {

// FACTION_COLD_BEGIN: construction and batch refits — per-round cadence.
namespace {

// Copies pool rows [first, pool.size()) with their labels and sensitive
// values.
Matrix GatherRows(const Dataset& pool, std::size_t first,
                  std::vector<int>* labels, std::vector<int>* sensitive) {
  const std::size_t d = pool.dim();
  Matrix x(pool.size() - first, d);
  const double* src = pool.features().data() + first * d;
  std::copy(src, src + x.rows() * d, x.data());
  labels->assign(pool.labels().begin() + static_cast<std::ptrdiff_t>(first),
                 pool.labels().end());
  sensitive->assign(
      pool.sensitive().begin() + static_cast<std::ptrdiff_t>(first),
      pool.sensitive().end());
  return x;
}

}  // namespace

DensityWindow::DensityWindow(std::size_t window, double decay,
                             const CovarianceConfig& covariance,
                             std::size_t dim)
    : window_(window), decay_(decay), covariance_(covariance) {
  FACTION_CHECK(decay > 0.0 && decay <= 1.0);
  if (window > 0 || decay < 1.0) covariance_.forgetting = true;
  if (window > 0 && dim > 0) SizeRing(dim);
}

void DensityWindow::SizeRing(std::size_t dim) {
  ring_z_ = Matrix(window_, dim);
  ring_label_.assign(window_, 0);
  ring_sensitive_.assign(window_, 0);
  ring_weight_.assign(window_, 0.0);
}

Status DensityWindow::Refit(const Dataset& pool, const Embed& embed) {
  const std::size_t first =
      window_ == 0 ? 0 : pool.size() - std::min(window_, pool.size());
  std::vector<int> labels, sensitive;
  const Matrix z = embed(GatherRows(pool, first, &labels, &sensitive));
  FACTION_ASSIGN_OR_RETURN(
      FairDensityEstimator fit,
      FairDensityEstimator::Fit(z, labels, sensitive, covariance_));
  estimator_ = std::move(fit);
  if (window_ > 0) {
    // The batch fit absorbs every window row at unit weight, which resets
    // any accumulated decay; the ring mirrors exactly that.
    if (ring_z_.rows() != window_ || ring_z_.cols() != z.cols()) {
      SizeRing(z.cols());
    }
    ring_start_ = 0;
    ring_size_ = 0;
    for (std::size_t i = 0; i < z.rows(); ++i) {
      Push(z.row_data(i), labels[i], sensitive[i]);
    }
  }
  return Status::Ok();
}

Status DensityWindow::FoldRows(const Dataset& pool, std::size_t first,
                               const Embed& embed) {
  FACTION_CHECK(estimator_.has_value());
  std::vector<int> labels, sensitive;
  const Matrix z = embed(GatherRows(pool, first, &labels, &sensitive));
  if (window_ > 0 || decay_ < 1.0) {
    // The window/decay discipline is per row.
    for (std::size_t i = 0; i < z.rows(); ++i) {
      FACTION_RETURN_IF_ERROR(
          Fold(z.row_data(i), labels[i], sensitive[i]));
    }
    return Status::Ok();
  }
  const Status updated =
      estimator_->Update(z, labels, sensitive, covariance_);
  if (!updated.ok()) estimator_.reset();
  return updated;
}
// FACTION_COLD_END

Status DensityWindow::Fold(const double* z, int label, int sensitive) {
  FACTION_CHECK(estimator_.has_value());
  if (decay_ < 1.0) {
    // Fade every absorbed row (an O(d) statistics rescale per component,
    // factors untouched) and the ring's weights with it, so a later
    // eviction removes exactly the mass the row still carries.
    estimator_->Decay(decay_);
    for (std::size_t i = 0; i < ring_size_; ++i) {
      ring_weight_[(ring_start_ + i) % window_] *= decay_;
    }
  }
  Status status = Status::Ok();
  if (window_ > 0 && ring_size_ >= window_) {
    const std::size_t slot = ring_start_;
    ring_start_ = (ring_start_ + 1) % window_;
    --ring_size_;
    status = estimator_->DowndateOne(ring_z_.row_data(slot),
                                     ring_label_[slot], ring_sensitive_[slot],
                                     covariance_, ring_weight_[slot]);
    if (status.ok()) {
      TelemetryCount("density.window_evictions");
    } else {
      ScopedAllocationAllow allow_error_report;
      TelemetryCount("density.window_evict_failed");
    }
  }
  if (status.ok()) {
    status = estimator_->UpdateOne(z, label, sensitive, covariance_);
  }
  if (!status.ok()) {
    // Partially folded statistics are unusable until the next Refit.
    ScopedAllocationAllow allow_error_report;
    estimator_.reset();
    return status;
  }
  if (window_ > 0) Push(z, label, sensitive);
  return Status::Ok();
}

void DensityWindow::Push(const double* z, int label, int sensitive) {
  const std::size_t slot = (ring_start_ + ring_size_) % window_;
  std::copy(z, z + ring_z_.cols(), ring_z_.row_data(slot));
  ring_label_[slot] = label;
  ring_sensitive_[slot] = sensitive;
  ring_weight_[slot] = 1.0;
  ++ring_size_;
}

}  // namespace faction
