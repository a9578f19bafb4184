// FACTION_HOT: pool scoring runs every acquisition iteration under the
// steady-state allocation ban; allocating idioms here are lint findings
// (tools/lint.py no-alloc-in-hot, DESIGN.md §13).
#include "core/fair_score.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace faction {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Min-max normalizes one log term by its batch range, treating -inf
// entries as the minimum: they map to 0. All-(-inf) or constant batches
// map to all-0.5 (every candidate equally preferable on this term), except
// that -inf (no signal) still maps below the rest when some entry is
// finite.
double NormalizeLogTerm(double v, const LogTermRange& range) {
  if (!std::isfinite(range.max) || range.max - range.min < 1e-300) {
    return !std::isfinite(v) && std::isfinite(range.max) ? 0.0 : 0.5;
  }
  return std::isfinite(v) ? (v - range.min) / (range.max - range.min) : 0.0;
}

}  // namespace

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

  // The sweep: component solves, marginal, per-class gaps and the class
  // LogSumExp for each 256-row block, plus each term's finite range.
  FactionScoreScratch local;
  FactionScoreScratch* s = scratch != nullptr ? scratch : &local;
  s->sweep.resize(estimator.ScoreScratchSize(n));
  s->log_density.resize(n);
  MixtureScores terms;
  terms.log_density = s->log_density.data();
  if (fair_select) {
    s->log_unfair.resize(n);
    terms.log_unfairness = s->log_unfair.data();
  }
  estimator.ScoreRows(features, fair_select ? &class_proba : nullptr,
                      s->sweep.data(), &terms);

  // One final pass: normalize both terms, form u and fill the output.
  for (std::size_t i = 0; i < n; ++i) {
    const double log_density = s->log_density[i];
    const double log_unfair = fair_select ? s->log_unfair[i] : kNegInf;
    const double u =
        NormalizeLogTerm(log_density, terms.density_range) -
        (fair_select
             ? lambda * NormalizeLogTerm(log_unfair, terms.unfairness_range)
             : 0.0);
    // Eq. 6 query scores feed directly into top-k selection; a NaN here
    // would silently poison the acquisition ranking.
    FACTION_DCHECK_FINITE(u);
    out[i] = FactionScore{u, log_density, log_unfair};
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
