#ifndef FACTION_DENSITY_DENSITY_WINDOW_H_
#define FACTION_DENSITY_DENSITY_WINDOW_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "density/fair_density.h"
#include "density/gaussian.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// Maintains a FairDensityEstimator under DESIGN.md §15's forgetting
/// discipline — the one copy shared by the pool-based FactionStrategy and
/// the per-arrival StreamingFaction.
///
/// With a window W > 0 only the last W folded rows contribute: a ring
/// holds their embeddings, labels, sensitive values and decayed weights,
/// so each fold past the window first evicts exactly the oldest row, at
/// exactly the mass it still carries (rank-1 downdate). With a decay
/// gamma < 1 every fold first scales the absorbed mass by gamma. W = 0 and
/// gamma = 1 is the grow-only estimator.
class DensityWindow {
 public:
  /// Embeds raw feature rows into the feature space of the mixture.
  using Embed = std::function<Matrix(const Matrix&)>;

  /// `decay` must lie in (0, 1]. A window or a decay switches `covariance`
  /// to the rank-1-maintainable ridge regularization (forgetting mode;
  /// shrinkage would force a refactor per eviction). `dim` > 0 sizes the
  /// ring up front for a known feature dimension; otherwise the first
  /// Refit sizes it.
  DensityWindow(std::size_t window, double decay,
                const CovarianceConfig& covariance, std::size_t dim = 0);

  /// Batch refit: embeds the last min(W, pool.size()) rows of `pool` (every
  /// row when W = 0), fits the mixture on them, and reseeds the ring with
  /// the same embeddings at unit weight. On failure the previous estimator
  /// and ring are kept and the error is returned.
  Status Refit(const Dataset& pool, const Embed& embed);

  /// Embeds pool rows [first, pool.size()) and folds them: one batched
  /// FairDensityEstimator::Update on the grow-only path, Fold per row
  /// otherwise. Requires an estimator; on failure it is dropped.
  Status FoldRows(const Dataset& pool, std::size_t first,
                  const Embed& embed);

  /// Folds one embedded row (dim() doubles): decay, evict the oldest row
  /// when the window is full, fold, record it in the ring. Allocation-free
  /// once warm. Requires an estimator; on failure it is dropped (its
  /// statistics are partially folded) and the error is returned.
  Status Fold(const double* z, int label, int sensitive);

  /// The maintained estimator, or nullptr before the first successful
  /// Refit and after a failure.
  const FairDensityEstimator* estimator() const {
    return estimator_.has_value() ? &*estimator_ : nullptr;
  }
  void Reset() { estimator_.reset(); }

  /// The covariance configuration every fit and fold uses.
  const CovarianceConfig& covariance() const { return covariance_; }

 private:
  friend struct StateCodecAccess;

  void SizeRing(std::size_t dim);
  /// Appends a row at unit weight; the caller guarantees a free slot.
  void Push(const double* z, int label, int sensitive);

  std::size_t window_;
  double decay_;
  CovarianceConfig covariance_;
  std::optional<FairDensityEstimator> estimator_;
  // Ring of the rows folded into the estimator (W > 0); ring_start_ is
  // the oldest entry.
  Matrix ring_z_;
  std::vector<int> ring_label_;
  std::vector<int> ring_sensitive_;
  std::vector<double> ring_weight_;
  std::size_t ring_start_ = 0;
  std::size_t ring_size_ = 0;
};

}  // namespace faction

#endif  // FACTION_DENSITY_DENSITY_WINDOW_H_
