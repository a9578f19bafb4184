#include "baselines/simple_strategies.h"

#include <cmath>
#include <limits>

#include "baselines/uncertainty.h"
#include "common/logging.h"
#include "density/fair_density.h"
#include "stream/selection.h"

namespace faction {

Result<std::vector<std::size_t>> RandomStrategy::SelectBatch(
    const SelectionContext& context, std::size_t batch) {
  const std::size_t n = context.candidate_features->rows();
  std::vector<std::size_t> perm;
  context.rng->Permutation(n, &perm);
  perm.resize(std::min(batch, n));
  return perm;
}

Result<std::vector<std::size_t>> EntropyStrategy::SelectBatch(
    const SelectionContext& context, std::size_t batch) {
  const Matrix proba =
      context.model->PredictProba(*context.candidate_features);
  return TopK(PredictiveEntropy(proba), batch);
}

Result<std::vector<std::size_t>> QufurStrategy::SelectBatch(
    const SelectionContext& context, std::size_t batch) {
  const Matrix proba =
      context.model->PredictProba(*context.candidate_features);
  // Uncertainty -> query probability, then Bernoulli acquisition; high
  // entropy should map to high probability, so normalize directly.
  const std::vector<double> omega =
      MinMaxNormalize(PredictiveEntropy(proba));
  return BernoulliSelect(omega, alpha_, batch, context.rng);
}

Result<std::vector<std::size_t>> DduStrategy::SelectBatch(
    const SelectionContext& context, std::size_t batch) {
  const Dataset& pool = *context.labeled_pool;
  const std::size_t n = context.candidate_features->rows();
  if (pool.empty()) {
    std::vector<std::size_t> perm;
    context.rng->Permutation(n, &perm);
    perm.resize(std::min(batch, n));
    return perm;
  }
  // The per-class mixture is the fair mixture on a single-group domain.
  const Matrix pool_z = context.model->ExtractFeatures(pool.features());
  const Result<FairDensityEstimator> fit = FairDensityEstimator::Fit(
      pool_z, pool.labels(), std::vector<int>(pool.size(), 0), covariance_,
      DensityDomain{2, {0}});
  if (!fit.ok()) {
    FACTION_LOG(kWarning) << "DDU density fit failed ("
                          << fit.status().ToString()
                          << "); falling back to random batch";
    std::vector<std::size_t> perm;
    context.rng->Permutation(n, &perm);
    perm.resize(std::min(batch, n));
    return perm;
  }
  const Matrix cand_z =
      context.model->ExtractFeatures(*context.candidate_features);
  // Score by negative log density: the lowest-density (most epistemically
  // uncertain) candidates are queried first. Batched: one blocked solve
  // per class component for the whole candidate pool.
  const std::vector<double> lgs =
      fit.value().LogMarginalDensityBatch(cand_z);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = std::isfinite(lgs[i]) ? -lgs[i]
                                      : std::numeric_limits<double>::max();
  }
  return TopK(scores, batch);
}

}  // namespace faction
