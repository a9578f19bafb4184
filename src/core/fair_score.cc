// FACTION_HOT: pool scoring runs every acquisition iteration under the
// steady-state allocation ban; allocating idioms here are lint findings
// (tools/lint.py no-alloc-in-hot, DESIGN.md §13).
#include "core/fair_score.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "stream/selection.h"
#include "tensor/ops.h"

namespace faction {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Min-max normalizes `values` into *out, treating -inf entries as the
// minimum: they map to 0. All-(-inf) or constant batches map to all-0.5
// (every candidate equally preferable on this term). Writes through a
// caller-provided buffer so per-iteration pool scoring allocates nothing.
void NormalizeLogTermInto(const std::vector<double>& values,
                          std::vector<double>* out) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = kNegInf;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  out->assign(values.size(), 0.5);
  double* o = out->data();
  if (!std::isfinite(mx) || mx - mn < 1e-300) {
    // No finite spread; but map -inf (no signal) below the rest.
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!std::isfinite(values[i]) && std::isfinite(mx)) o[i] = 0.0;
    }
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    o[i] = std::isfinite(values[i]) ? (values[i] - mn) / (mx - mn) : 0.0;
  }
}

}  // namespace

double LogUnfairness(const FairDensityEstimator& estimator,
                     const double* component_row, const double* class_proba,
                     double* terms) {
  // A class with no cross-group gap, or a negligible posterior, adds a
  // -inf term: LogSumExp then returns exactly what it returns over the
  // remaining terms (exp(-inf) is an exact 0), and -inf when none remain.
  const int classes = estimator.domain().num_classes;
  for (int c = 0; c < classes; ++c) {
    const double log_delta = estimator.LogDeltaG(component_row, c);
    const double pc = class_proba[c];
    terms[c] = std::isfinite(log_delta) && pc > 1e-12
                   ? std::log(pc) + log_delta
                   : kNegInf;
  }
  return LogSumExp(terms, static_cast<std::size_t>(classes));
}

Status ComputeFactionScoresInto(const FairDensityEstimator& estimator,
                                const Matrix& features,
                                const Matrix& class_proba, double lambda,
                                bool fair_select,
                                FactionScoreScratch* scratch,
                                std::vector<FactionScore>* out_scores) {
  FACTION_CHECK(out_scores != nullptr);
  const std::size_t n = features.rows();
  const std::size_t classes =
      static_cast<std::size_t>(estimator.domain().num_classes);
  if (class_proba.rows() != n || class_proba.cols() != classes) {
    return Status::InvalidArgument(
        "ComputeFactionScores: class_proba shape mismatch");
  }
  if (features.cols() != estimator.dim()) {
    return Status::InvalidArgument(
        "ComputeFactionScores: feature dimension mismatch");
  }

  std::vector<FactionScore>& out = *out_scores;
  out.resize(n);  // every field of every element is overwritten below
  if (n == 0) return Status::Ok();

  // One batched component pass for the whole pool: each present component's
  // log-densities come from a single blocked triangular solve
  // (density/gaussian.cc) instead of per-sample solves with per-call
  // temporaries. The marginal and the fairness term both read this matrix,
  // so fair selection re-evaluates no Gaussian.
  FactionScoreScratch local;
  FactionScoreScratch* s = scratch != nullptr ? scratch : &local;
  Matrix& comp = s->component_logpdf;
  estimator.ComponentLogPdfBatch(features, &comp);

  std::vector<double>& log_density = s->log_density;
  std::vector<double>& log_unfair = s->log_unfair;
  log_density.resize(n);
  log_unfair.assign(n, kNegInf);  // the fair_select = false value
  estimator.LogMarginalFromComponents(comp, log_density.data());

  if (fair_select) {
    std::vector<double>& terms = s->class_terms;
    terms.resize(classes);
    for (std::size_t i = 0; i < n; ++i) {
      log_unfair[i] = LogUnfairness(estimator, comp.row_data(i),
                                    class_proba.row_data(i), terms.data());
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i].log_density = log_density[i];
    out[i].log_unfairness = log_unfair[i];
  }

  NormalizeLogTermInto(log_density, &s->density_norm);
  NormalizeLogTermInto(log_unfair, &s->unfair_norm);
  const std::vector<double>& density_norm = s->density_norm;
  const std::vector<double>& unfair_norm = s->unfair_norm;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].u = density_norm[i] -
               (fair_select ? lambda * unfair_norm[i] : 0.0);
    // Eq. 6 query scores feed directly into top-k selection; a NaN here
    // would silently poison the acquisition ranking.
    FACTION_DCHECK_FINITE(out[i].u);
  }
  return Status::Ok();
}

// FACTION_COLD_BEGIN: value-returning convenience wrapper (tests, one-off
// callers); the pipeline uses the Into variant with loop-carried storage.
Result<std::vector<FactionScore>> ComputeFactionScores(
    const FairDensityEstimator& estimator, const Matrix& features,
    const Matrix& class_proba, double lambda, bool fair_select,
    FactionScoreScratch* scratch) {
  std::vector<FactionScore> out;
  FACTION_RETURN_IF_ERROR(ComputeFactionScoresInto(
      estimator, features, class_proba, lambda, fair_select, scratch, &out));
  return out;
}
// FACTION_COLD_END

}  // namespace faction
