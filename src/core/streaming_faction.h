#ifndef FACTION_CORE_STREAMING_FACTION_H_
#define FACTION_CORE_STREAMING_FACTION_H_

#include <cstddef>
#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "density/density_window.h"
#include "nn/trainer.h"
#include "stream/incremental.h"

namespace faction {

/// Defined in serve/state_codec.cc: the single befriended accessor through
/// which the session checkpoint codec captures and restores private
/// learner state (DESIGN.md §17).
struct StateCodecAccess;

/// Configuration of the single-sample-arrival FACTION variant.
struct StreamingFactionConfig {
  MlpConfig model;
  TrainConfig train;
  /// Eq. 6 trade-off and Algorithm 1's query-rate multiplier.
  double lambda = 0.5;
  double alpha = 3.0;
  CovarianceConfig covariance;
  /// The first `warm_start` arrivals are always queried, seeding the
  /// labeled pool.
  std::size_t warm_start = 50;
  /// Arrivals consumed by the incremental normalizer before probabilistic
  /// decisions start (Sec. IV-D's running range warm-up).
  std::size_t burn_in = 8;
  /// Retrain the classifier and refit the density estimator after this
  /// many new labels.
  std::size_t refit_interval = 25;
  /// When true (the default), every labeled arrival between full refits is
  /// folded into the density estimator's sufficient statistics in the
  /// current feature space (O(d^2) per sample) instead of leaving the
  /// estimator frozen until the next refit. The periodic full Refit still
  /// resyncs everything against the retrained extractor.
  bool incremental_density = true;
  /// Sliding window over the density estimator (DESIGN.md §15): when > 0,
  /// only the last `density_window` labeled arrivals contribute to the GDA
  /// components. Each fold past the window evicts the oldest folded
  /// embedding via a rank-1 Cholesky downdate (O(d^2)) before absorbing
  /// the new one, and the periodic full Refit fits on exactly the window's
  /// rows. Implies forgetting-mode covariance (CovarianceConfig::
  /// forgetting, ridge regularization). 0 disables (grow-only estimator).
  std::size_t density_window = 0;
  /// Exponential forgetting: every labeled arrival first scales the
  /// density estimator's absorbed mass by this factor (Gaussian::Decay —
  /// an O(d) statistics rescale that leaves the cached factors untouched),
  /// so older labels fade geometrically. In (0, 1]; 1 disables. Also
  /// implies forgetting-mode covariance. Composes with `density_window`:
  /// evicted rows are downdated at their decayed weight.
  double density_decay = 1.0;
  std::uint64_t seed = 1;
};

/// FACTION for samples arriving one at a time (the extension sketched in
/// Sec. IV-D): the score u(x) of each arrival is normalized against the
/// *incremental* range of all scores gathered so far instead of a batch
/// range, and the Bernoulli query rule is applied per sample. The labeled
/// pool, classifier, and (class x sensitive) density estimator are
/// refreshed every `refit_interval` acquisitions.
///
/// Usage per arrival:
///   if (streaming.ShouldQuery(example_without_label).value()) {
///     example.label = AskTheOracle(...);
///     streaming.ProvideLabel(example);
///   }
class StreamingFaction {
 public:
  explicit StreamingFaction(const StreamingFactionConfig& config);

  StreamingFaction(StreamingFaction&&) = default;
  StreamingFaction(const StreamingFaction&) = delete;
  StreamingFaction& operator=(const StreamingFaction&) = delete;

  /// Decides whether to query the label of the arriving sample (its label
  /// field is ignored). Fails on dimension mismatch.
  Result<bool> ShouldQuery(const Example& example);

  /// Feeds back a labeled sample that was queried. Triggers a refit when
  /// the interval is reached.
  Status ProvideLabel(const Example& example);

  /// Predicts the class of a feature vector with the current model.
  Result<int> Predict(const std::vector<double>& x) const;

  const MlpClassifier& model() const { return *model_; }
  std::size_t samples_seen() const { return seen_; }
  std::size_t queries_made() const { return queried_; }
  std::size_t pool_size() const { return pool_.size(); }
  bool has_estimator() const { return density_.estimator() != nullptr; }

 private:
  friend struct StateCodecAccess;

  /// Retrains the classifier on the pool and refits the density estimator
  /// in the new feature space.
  Status Refit();

  /// FACTION's u(x) for one sample in the current feature space, log
  /// domain (same construction as the batch scorer, without the batch
  /// normalization — the incremental normalizer takes that role).
  /// Allocation-free in steady state: every temporary lives in
  /// train_workspace_ (non-const for that reason).
  double ScoreSample(const std::vector<double>& x);

  StreamingFactionConfig config_;
  Rng rng_;
  std::unique_ptr<MlpClassifier> model_;
  Dataset pool_;
  // The density estimator under the window/decay discipline; its ring is
  // sized in the constructor so the steady-state evict -> downdate -> fold
  // path never touches the heap.
  DensityWindow density_;
  /// Persistent arena for TrainClassifier's per-step temporaries; owned
  /// via unique_ptr so StreamingFaction stays movable.
  std::unique_ptr<Workspace> train_workspace_;
  IncrementalNormalizer normalizer_;
  std::size_t seen_ = 0;
  std::size_t queried_ = 0;
  std::size_t labels_since_refit_ = 0;
  bool trained_once_ = false;
};

}  // namespace faction

#endif  // FACTION_CORE_STREAMING_FACTION_H_
