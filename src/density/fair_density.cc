// FACTION_HOT: the mixture evaluation paths run under the per-arrival and
// pool-scoring allocation bans; allocating idioms here are lint findings
// (tools/lint.py no-alloc-in-hot, DESIGN.md §13). Fitting, batch updates
// and the vector conveniences sit inside FACTION_COLD fences.
#include "density/fair_density.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/alloc_audit.h"
#include "common/check.h"
#include "common/telemetry.h"

namespace faction {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// FACTION_COLD_BEGIN: batch fitting/refitting — per-round cadence — and
// the error path of the per-row folds.
Status OutOfDomain(int label, int sensitive) {
  return Status::OutOfRange("FairDensityEstimator: (label " +
                            std::to_string(label) + ", sensitive " +
                            std::to_string(sensitive) +
                            ") outside the density domain");
}

// Copies the listed rows of `features` into a dense matrix for Gaussian::Fit.
Matrix GatherRows(const Matrix& features,
                  const std::vector<std::size_t>& idx) {
  Matrix out(idx.size(), features.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    std::copy(features.row_data(idx[r]),
              features.row_data(idx[r]) + features.cols(), out.row_data(r));
  }
  return out;
}

}  // namespace

Result<FairDensityEstimator> FairDensityEstimator::Fit(
    const Matrix& features, const std::vector<int>& labels,
    const std::vector<int>& sensitive, const CovarianceConfig& config,
    DensityDomain domain) {
  if (features.rows() == 0) {
    return Status::InvalidArgument("FairDensityEstimator: no samples");
  }
  std::vector<int> sorted = domain.groups;
  std::sort(sorted.begin(), sorted.end());
  if (domain.num_classes < 2 || sorted.empty() ||
      std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument(
        "FairDensityEstimator: the domain needs >= 2 classes and distinct "
        "sensitive groups");
  }
  FairDensityEstimator est;
  est.dim_ = features.cols();
  est.domain_ = std::move(domain);
  const std::size_t cells =
      static_cast<std::size_t>(est.domain_.num_classes) *
      est.domain_.groups.size();
  est.components_.resize(cells);
  est.present_.assign(cells, false);
  est.counts_.assign(cells, 0);
  est.wcounts_.assign(cells, 0.0);
  est.forgetting_ = config.forgetting;
  // Every row lies in the domain, so at least one component gets fitted.
  std::uint64_t fitted = 0;
  FACTION_RETURN_IF_ERROR(
      est.Absorb(features, labels, sensitive, config, &fitted));
  TelemetryCount("density.fair_fit");
  TelemetryCount("density.class_fit", fitted);
  return est;
}

Status FairDensityEstimator::Update(const Matrix& features,
                                    const std::vector<int>& labels,
                                    const std::vector<int>& sensitive,
                                    const CovarianceConfig& config) {
  if (total_ == 0) {
    return Status::FailedPrecondition(
        "FairDensityEstimator::Update requires a prior successful Fit");
  }
  if (features.rows() == 0 && labels.empty() && sensitive.empty()) {
    return Status::Ok();
  }
  std::uint64_t touched = 0;
  FACTION_RETURN_IF_ERROR(
      Absorb(features, labels, sensitive, config, &touched));
  TelemetryCount("density.fair_update");
  TelemetryCount("density.class_update", touched);
  return Status::Ok();
}

Status FairDensityEstimator::Absorb(const Matrix& features,
                                    const std::vector<int>& labels,
                                    const std::vector<int>& sensitive,
                                    const CovarianceConfig& config,
                                    std::uint64_t* touched) {
  const std::size_t n = features.rows();
  if (labels.size() != n || sensitive.size() != n) {
    return Status::InvalidArgument(
        "FairDensityEstimator: labels/sensitive size mismatch");
  }
  if (features.cols() != dim_) {
    return Status::InvalidArgument(
        "FairDensityEstimator: dimension mismatch");
  }
  // One pass buckets the rows by component, rejecting the batch before
  // any state changes when a row lies outside the domain.
  std::vector<std::vector<std::size_t>> buckets(components_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int idx = ComponentIndex(labels[i], sensitive[i]);
    if (idx < 0) return OutOfDomain(labels[i], sensitive[i]);
    buckets[static_cast<std::size_t>(idx)].push_back(i);
  }
  total_ += n;
  wtotal_ += static_cast<double>(n);
  for (std::size_t idx = 0; idx < components_.size(); ++idx) {
    const std::vector<std::size_t>& bucket = buckets[idx];
    if (bucket.empty()) continue;  // untouched: cached factor stays valid
    counts_[idx] += bucket.size();
    wcounts_[idx] += static_cast<double>(bucket.size());
    const Matrix rows = GatherRows(features, bucket);
    if (present_[idx]) {
      FACTION_RETURN_IF_ERROR(components_[idx].Update(rows, config));
    } else {
      // A component seen for the first time is fitted fresh.
      FACTION_ASSIGN_OR_RETURN(Gaussian g, Gaussian::Fit(rows, config));
      components_[idx] = std::move(g);
      present_[idx] = true;
    }
    ++*touched;
  }
  RefreshWeights();
  return Status::Ok();
}

void FairDensityEstimator::RefreshWeights() {
  const std::size_t total = counts_.size();
  weights_.assign(total, 0.0);
  log_weights_.assign(total, kNegInf);
  for (std::size_t idx = 0; idx < total; ++idx) {
    // Legacy mode keeps the integer-count ratio (bitwise-identical weights
    // to before forgetting existed); forgetting mode weighs by the decayed
    // masses so evictions and decay release exactly the mass still carried.
    weights_[idx] =
        forgetting_
            ? wcounts_[idx] / wtotal_
            : static_cast<double>(counts_[idx]) / static_cast<double>(total_);
    if (weights_[idx] > 0.0) log_weights_[idx] = std::log(weights_[idx]);
  }
}
// FACTION_COLD_END

int FairDensityEstimator::ComponentIndex(int label, int sensitive) const {
  if (label < 0 || label >= domain_.num_classes) return -1;
  const auto it =
      std::find(domain_.groups.begin(), domain_.groups.end(), sensitive);
  if (it == domain_.groups.end()) return -1;
  return label * static_cast<int>(domain_.groups.size()) +
         static_cast<int>(it - domain_.groups.begin());
}

Status FairDensityEstimator::UpdateOne(const double* z, int label,
                                       int sensitive,
                                       const CovarianceConfig& config) {
  if (total_ == 0) {
    return Status::FailedPrecondition(
        "FairDensityEstimator::UpdateOne requires a prior successful Fit");
  }
  FACTION_CHECK(z != nullptr);
  const int idx = ComponentIndex(label, sensitive);
  if (idx < 0) return OutOfDomain(label, sensitive);
  total_ += 1;
  wtotal_ += 1.0;
  counts_[idx] += 1;
  wcounts_[idx] += 1.0;
  if (present_[idx]) {
    FACTION_RETURN_IF_ERROR(components_[idx].UpdateOne(z, config));
  } else {
    // A component seen for the first time mid-stream is fitted fresh —
    // a once-per-component event, exempt from steady-state alloc bans.
    ScopedAllocationAllow allow_fresh_fit;
    Matrix row(1, dim_);  // lint-allow(no-alloc-in-hot): once per component
    std::copy(z, z + dim_, row.row_data(0));
    FACTION_ASSIGN_OR_RETURN(Gaussian g, Gaussian::Fit(row, config));
    components_[idx] = std::move(g);
    present_[idx] = true;
  }
  // weights_/log_weights_ keep their size, so the refresh reuses capacity.
  RefreshWeights();
  TelemetryCount("density.fair_update");
  TelemetryCount("density.class_update", 1);
  return Status::Ok();
}

Status FairDensityEstimator::DowndateOne(const double* z, int label,
                                         int sensitive,
                                         const CovarianceConfig& config,
                                         double row_weight) {
  FACTION_CHECK(z != nullptr);
  const int idx = ComponentIndex(label, sensitive);
  if (idx < 0) return OutOfDomain(label, sensitive);
  // Evicting from an empty estimator or component means the window handed
  // back a row it never folded — a caller bug, not a recoverable state.
  FACTION_CHECK_GT(total_, std::size_t{0});
  FACTION_CHECK(present_[idx]);
  FACTION_CHECK_GT(counts_[idx], std::size_t{0});
  total_ -= 1;
  wtotal_ -= row_weight;
  counts_[idx] -= 1;
  wcounts_[idx] -= row_weight;
  if (counts_[idx] == 0) {
    // Evicting a component's last row drops it from the mixture — exactly
    // what a batch fit on the remaining window produces — and re-arms the
    // fresh-fit path should the component reappear.
    present_[idx] = false;
    wcounts_[idx] = 0.0;
  } else {
    FACTION_RETURN_IF_ERROR(
        components_[idx].DowndateOne(z, config, row_weight));
  }
  RefreshWeights();
  TelemetryCount("density.fair_downdate");
  return Status::Ok();
}

void FairDensityEstimator::Decay(double gamma) {
  FACTION_CHECK(forgetting_);
  FACTION_CHECK(gamma > 0.0 && gamma <= 1.0);
  for (std::size_t idx = 0; idx < components_.size(); ++idx) {
    if (present_[idx]) components_[idx].Decay(gamma);
    wcounts_[idx] *= gamma;
  }
  wtotal_ *= gamma;
  // No RefreshWeights: uniform scaling cancels in every wcount/wtotal
  // ratio, so the weights are left literally (bitwise) untouched rather
  // than recomputed with fresh rounding.
}

bool FairDensityEstimator::HasComponent(int label, int sensitive) const {
  const int idx = ComponentIndex(label, sensitive);
  return idx >= 0 && present_[idx];
}

double FairDensityEstimator::Weight(int label, int sensitive) const {
  const int idx = ComponentIndex(label, sensitive);
  return idx < 0 ? 0.0 : weights_[idx];
}

void FairDensityEstimator::ComponentLogPdfRow(const double* z,
                                              double* scratch,
                                              double* row) const {
  for (std::size_t idx = 0; idx < components_.size(); ++idx) {
    row[idx] = present_[idx] ? components_[idx].LogPdf(z, scratch) : kNegInf;
  }
}

void FairDensityEstimator::ComponentLogPdfBatch(const Matrix& zs,
                                                Matrix* out) const {
  FACTION_CHECK_EQ(zs.cols(), dim_);
  const std::size_t n = zs.rows();
  const std::size_t total = components_.size();
  // Every entry is written below (densities or -inf), so skip the clear
  // and let a warm caller-owned matrix be reused allocation-free.
  out->ResizeForOverwrite(n, total);
  if (n == 0) return;
  // Per-thread, capacity-retaining column scratch: after the first batch
  // of a given pool size the scoring path allocates nothing (every element
  // is overwritten by LogPdfBatch before the copy reads it).
  static thread_local std::vector<double> col;  // lint-allow(no-alloc-in-hot): per-thread warmup only
  col.resize(n);
  for (std::size_t idx = 0; idx < total; ++idx) {
    if (!present_[idx]) {
      for (std::size_t i = 0; i < n; ++i) (*out)(i, idx) = kNegInf;
      continue;
    }
    // One blocked triangular solve for the whole batch.
    components_[idx].LogPdfBatch(zs, col.data());
    for (std::size_t i = 0; i < n; ++i) (*out)(i, idx) = col[i];
  }
}

double FairDensityEstimator::LogMarginalFromRow(const double* row) const {
  // LogSumExp (tensor/ops.cc) over the weighted component terms in
  // ascending component order, without a terms buffer. A missing or
  // zero-weight component's term is -inf: it neither moves the max nor
  // adds to the sum (exp(-inf) is an exact 0), so the result is bitwise
  // that of LogSumExp over the present terms alone.
  const std::size_t total = components_.size();
  double mx = kNegInf;
  for (std::size_t idx = 0; idx < total; ++idx) {
    mx = std::max(mx, row[idx] + log_weights_[idx]);
  }
  if (!std::isfinite(mx)) return mx;
  double sum = 0.0;
  for (std::size_t idx = 0; idx < total; ++idx) {
    sum += std::exp(row[idx] + log_weights_[idx] - mx);
  }
  return mx + std::log(sum);
}

void FairDensityEstimator::LogMarginalFromComponents(const Matrix& comp,
                                                     double* out) const {
  FACTION_CHECK_EQ(comp.cols(), components_.size());
  for (std::size_t i = 0; i < comp.rows(); ++i) {
    out[i] = LogMarginalFromRow(comp.row_data(i));
  }
}

double FairDensityEstimator::LogDeltaG(const double* row, int label) const {
  FACTION_DCHECK(label >= 0 && label < domain_.num_classes);
  // The largest pairwise gap is g_max - g_min over the class's groups;
  // log(g_max - g_min) = hi + log1p(-e^{-(hi - lo)}) in log space.
  const std::size_t groups = domain_.groups.size();
  const double* g = row + static_cast<std::size_t>(label) * groups;
  double hi = kNegInf;
  double lo = std::numeric_limits<double>::infinity();
  bool has_zero = false;  // a missing component: density 0
  for (std::size_t k = 0; k < groups; ++k) {
    if (!std::isfinite(g[k])) {
      has_zero = true;
      continue;
    }
    hi = std::max(hi, g[k]);
    lo = std::min(lo, g[k]);
  }
  if (!std::isfinite(hi)) return kNegInf;  // no group has density
  if (has_zero) return hi;                 // gap against density 0
  const double gap = hi - lo;
  if (gap < 1e-300) return kNegInf;  // identical densities
  return hi + std::log1p(-std::exp(-gap));
}

// FACTION_COLD_BEGIN: vector conveniences (tests, baselines, one-off
// callers) — never inside a steady-state ban.
std::vector<double> FairDensityEstimator::ComponentRow(
    const std::vector<double>& z) const {
  FACTION_DCHECK_LEN(z, dim_);
  std::vector<double> row(components_.size(), kNegInf);
  for (std::size_t idx = 0; idx < components_.size(); ++idx) {
    if (present_[idx]) row[idx] = components_[idx].LogPdf(z);
  }
  return row;
}

double FairDensityEstimator::LogComponentDensity(const std::vector<double>& z,
                                                 int label,
                                                 int sensitive) const {
  FACTION_DCHECK_LEN(z, dim_);
  const int idx = ComponentIndex(label, sensitive);
  if (idx < 0 || !present_[idx]) return kNegInf;
  return components_[idx].LogPdf(z);
}

double FairDensityEstimator::LogMarginalDensity(
    const std::vector<double>& z) const {
  return LogMarginalFromRow(ComponentRow(z).data());
}

std::vector<double> FairDensityEstimator::LogMarginalDensityBatch(
    const Matrix& zs) const {
  Matrix comp;
  ComponentLogPdfBatch(zs, &comp);
  std::vector<double> out(zs.rows());
  LogMarginalFromComponents(comp, out.data());
  return out;
}

double FairDensityEstimator::DeltaG(const std::vector<double>& z,
                                    int label) const {
  if (label < 0 || label >= domain_.num_classes) return 0.0;
  return std::exp(LogDeltaG(ComponentRow(z).data(), label));
}
// FACTION_COLD_END

}  // namespace faction
