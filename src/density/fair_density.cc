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
#include "tensor/simd.h"

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

namespace {

// Rows per sweep block: the dim-major solve scratch and every per-term
// array of a block stay cache-resident between the solve and the combine.
constexpr std::size_t kScoreBlock = 256;

// Per-row arrays ScoreRows carves out of its scratch, in units of the
// block width: the solve (dim), the component columns, the exp stage
// (components + classes), the marginal maximum, the log stage (1 +
// classes) and, per class, the gap, its maximum, the has-zero flag and the
// class term, plus the LogSumExp maximum and sum.
std::size_t ScratchPerRow(std::size_t dim, std::size_t comps,
                          std::size_t classes) {
  return dim + comps + (comps + classes) + 1 + (1 + classes) + 4 * classes +
         2;
}

}  // namespace

std::size_t FairDensityEstimator::ScoreScratchSize(std::size_t rows) const {
  return std::min(rows, kScoreBlock) *
         ScratchPerRow(dim_, components_.size(),
                       static_cast<std::size_t>(domain_.num_classes));
}

void FairDensityEstimator::ScoreRows(const Matrix& zs,
                                     const Matrix* class_proba,
                                     double* scratch,
                                     MixtureScores* out) const {
  FACTION_CHECK_EQ(zs.cols(), dim_);
  FACTION_CHECK(out != nullptr && out->log_density != nullptr);
  const std::size_t n = zs.rows();
  const std::size_t comps = components_.size();
  const std::size_t classes = static_cast<std::size_t>(domain_.num_classes);
  const std::size_t groups = domain_.groups.size();
  const bool fair = class_proba != nullptr;
  if (fair) {
    FACTION_CHECK(out->log_unfairness != nullptr);
    FACTION_CHECK_SHAPE(*class_proba, n, classes);
  }
  out->density_range = LogTermRange{};
  out->unfairness_range = LogTermRange{};
  const SimdKernels& kern = ActiveSimd();
  const std::size_t w0 = std::min(n, kScoreBlock);
  // Component-major layout: array k of a block of width w holds entry t at
  // [k * w + t]. The exp stage holds the marginal's terms followed by the
  // negated class gaps, the log stage the marginal's sum followed by the
  // class posteriors, so one kernel call covers each.
  double* ys = scratch;
  double* comp = ys + dim_ * w0;
  double* expo = comp + comps * w0;
  double* mx = expo + (comps + classes) * w0;
  double* logs = mx + w0;
  double* gap = logs + (1 + classes) * w0;
  double* hi = gap + classes * w0;
  double* has_zero = hi + classes * w0;
  double* terms = has_zero + classes * w0;
  double* lse_mx = terms + classes * w0;
  double* lse_sum = lse_mx + w0;

  for (std::size_t s0 = 0; s0 < n; s0 += kScoreBlock) {
    const std::size_t w = std::min(n - s0, kScoreBlock);
    for (std::size_t idx = 0; idx < comps; ++idx) {
      double* col = comp + idx * w;
      if (present_[idx]) {
        components_[idx].LogPdfBlock(zs.row_data(s0), w, ys, col);
      } else {
        std::fill(col, col + w, kNegInf);
      }
    }

    // Eq. 3 as LogSumExp over the weighted components in ascending
    // component order. A missing or zero-weight component's term is -inf:
    // it neither moves the max nor adds to the sum (exp(-inf) is +0).
    std::fill(mx, mx + w, kNegInf);
    for (std::size_t idx = 0; idx < comps; ++idx) {
      const double lw = log_weights_[idx];
      const double* col = comp + idx * w;
      for (std::size_t t = 0; t < w; ++t) mx[t] = std::max(mx[t], col[t] + lw);
    }
    for (std::size_t idx = 0; idx < comps; ++idx) {
      const double lw = log_weights_[idx];
      const double* col = comp + idx * w;
      double* e = expo + idx * w;
      for (std::size_t t = 0; t < w; ++t) e[t] = col[t] + lw - mx[t];
    }

    // Eqs. 4-5: the largest cross-group gap of class c is g_max - g_min,
    // log(g_max - g_min) = hi + log1p(-e^{-(hi - lo)}); a non-finite
    // component log-density counts as density 0.
    if (fair) {
      for (std::size_t c = 0; c < classes; ++c) {
        double* hc = hi + c * w;
        double* zc = has_zero + c * w;
        double* gc = gap + c * w;
        double* neg = expo + (comps + c) * w;
        double* pc = logs + (1 + c) * w;
        for (std::size_t t = 0; t < w; ++t) {
          double h = kNegInf;
          double lo = std::numeric_limits<double>::infinity();
          double zero = 0.0;
          for (std::size_t k = 0; k < groups; ++k) {
            const double g = comp[(c * groups + k) * w + t];
            if (!std::isfinite(g)) {
              zero = 1.0;
              continue;
            }
            h = std::max(h, g);
            lo = std::min(lo, g);
          }
          hc[t] = h;
          zc[t] = zero;
          gc[t] = h - lo;
          neg[t] = -gc[t];
          pc[t] = (*class_proba)(s0 + t, c);
        }
      }
    }

    kern.vexp(expo, expo, (comps + (fair ? classes : 0)) * w);
    for (std::size_t t = 0; t < w; ++t) logs[t] = 0.0;
    for (std::size_t idx = 0; idx < comps; ++idx) {
      const double* e = expo + idx * w;
      for (std::size_t t = 0; t < w; ++t) logs[t] += e[t];
    }
    if (fair) {
      double* neg = expo + comps * w;
      for (std::size_t t = 0; t < classes * w; ++t) neg[t] = -neg[t];
      kern.vlog1p(neg, neg, classes * w);
    }
    kern.vlog(logs, logs, (1 + (fair ? classes : 0)) * w);

    double* density = out->log_density + s0;
    for (std::size_t t = 0; t < w; ++t) {
      density[t] = std::isfinite(mx[t]) ? mx[t] + logs[t] : mx[t];
      out->density_range.Add(density[t]);
    }
    if (!fair) continue;

    // Eq. 6's sum over classes, as LogSumExp over log p_c + log Delta g_c
    // in class order. A class with no gap or a negligible posterior adds a
    // -inf term, which LogSumExp ignores exactly.
    for (std::size_t c = 0; c < classes; ++c) {
      const double* hc = hi + c * w;
      const double* zc = has_zero + c * w;
      const double* gc = gap + c * w;
      const double* l1p = expo + (comps + c) * w;
      const double* log_pc = logs + (1 + c) * w;
      double* term = terms + c * w;
      for (std::size_t t = 0; t < w; ++t) {
        double log_delta;
        if (!std::isfinite(hc[t])) {
          log_delta = kNegInf;  // no group has density
        } else if (zc[t] != 0.0) {
          log_delta = hc[t];  // gap against density 0
        } else if (gc[t] < 1e-300) {
          log_delta = kNegInf;  // identical densities
        } else {
          log_delta = hc[t] + l1p[t];
        }
        const double p = (*class_proba)(s0 + t, c);
        term[t] = std::isfinite(log_delta) && p > 1e-12 ? log_pc[t] + log_delta
                                                        : kNegInf;
      }
    }
    std::copy(terms, terms + w, lse_mx);
    for (std::size_t c = 0; c < classes; ++c) {
      const double* term = terms + c * w;
      for (std::size_t t = 0; t < w; ++t) {
        lse_mx[t] = std::max(lse_mx[t], term[t]);
      }
    }
    for (std::size_t c = 0; c < classes; ++c) {
      double* term = terms + c * w;
      for (std::size_t t = 0; t < w; ++t) term[t] = term[t] - lse_mx[t];
    }
    kern.vexp(terms, terms, classes * w);
    std::fill(lse_sum, lse_sum + w, 0.0);
    for (std::size_t c = 0; c < classes; ++c) {
      const double* e = terms + c * w;
      for (std::size_t t = 0; t < w; ++t) lse_sum[t] += e[t];
    }
    kern.vlog(lse_sum, lse_sum, w);
    double* unfair = out->log_unfairness + s0;
    for (std::size_t t = 0; t < w; ++t) {
      unfair[t] =
          std::isfinite(lse_mx[t]) ? lse_mx[t] + lse_sum[t] : lse_mx[t];
      out->unfairness_range.Add(unfair[t]);
    }
  }
}

// FACTION_COLD_BEGIN: vector conveniences (tests, baselines, one-off
// callers) — never inside a steady-state ban.
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
  FACTION_CHECK_LEN(z, dim_);
  Matrix row(1, dim_);
  std::copy(z.begin(), z.end(), row.row_data(0));
  return LogMarginalDensityBatch(row)[0];
}

std::vector<double> FairDensityEstimator::LogMarginalDensityBatch(
    const Matrix& zs) const {
  std::vector<double> scratch(ScoreScratchSize(zs.rows()));
  std::vector<double> out(zs.rows());
  MixtureScores scores;
  scores.log_density = out.data();
  ScoreRows(zs, nullptr, scratch.data(), &scores);
  return out;
}

double FairDensityEstimator::DeltaG(const std::vector<double>& z,
                                    int label) const {
  if (label < 0 || label >= domain_.num_classes) return 0.0;
  FACTION_CHECK_LEN(z, dim_);
  // With p_label = 1 and every other posterior 0, Eq. 6's sum is the one
  // term log(1) + log Delta g_label, and log(1) is exactly +0.
  Matrix row(1, dim_);
  std::copy(z.begin(), z.end(), row.row_data(0));
  Matrix proba(1, static_cast<std::size_t>(domain_.num_classes));
  proba(0, static_cast<std::size_t>(label)) = 1.0;
  std::vector<double> scratch(ScoreScratchSize(1));
  double log_density = 0.0;
  double log_delta = 0.0;
  MixtureScores scores;
  scores.log_density = &log_density;
  scores.log_unfairness = &log_delta;
  ScoreRows(row, &proba, scratch.data(), &scores);
  double delta = 0.0;
  ActiveSimd().vexp(&log_delta, &delta, 1);
  return delta;
}
// FACTION_COLD_END

}  // namespace faction
