#ifndef FACTION_DATA_DATASET_H_
#define FACTION_DATA_DATASET_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// A single example in the data space P = X x S x Y x E of the paper:
/// features x in R^d, binary sensitive attribute s in {-1,+1}, binary label
/// y in {0,1}, and an environment id e.
struct Example {
  std::vector<double> x;
  int sensitive = 1;    ///< s in {-1, +1}
  int label = 0;        ///< y in {0, 1}
  int environment = 0;  ///< e in N
};

/// Column-oriented batch of examples. Features are a dense n x d matrix;
/// labels / sensitive attributes / environments are parallel vectors.
///
/// This is the unit the streaming pipeline moves around: an incoming task
/// D_t^U is a Dataset whose labels are hidden behind the LabelOracle.
class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset with feature dimension d (so Append can check
  /// shapes before the first row arrives).
  explicit Dataset(std::size_t dim) : dim_(dim) {}

  std::size_t size() const { return labels_.size(); }
  std::size_t dim() const { return dim_; }
  bool empty() const { return labels_.empty(); }

  /// The n x d feature matrix (compacted lazily after appends).
  const Matrix& features() const;
  const std::vector<int>& labels() const { return labels_; }
  const std::vector<int>& sensitive() const { return sensitive_; }
  const std::vector<int>& environments() const { return environments_; }

  /// Appends one example. Fails when the feature dimension disagrees or the
  /// sensitive/label encodings are out of range.
  Status Append(const Example& example);

  /// Pre-grows backing storage so the next `rows - size()` Appends perform
  /// no heap allocation. Note features() compacts the matrix back down to
  /// size(), so reserve *after* the last features() call of a round (the
  /// streaming pipeline reserves at the end of each refit).
  void Reserve(std::size_t rows);

  /// Returns the i-th example by value.
  Example Get(std::size_t i) const;

  /// Allocation-aware Get: fills *out in place, reusing out->x capacity —
  /// a loop-carried Example makes repeated gets heap-free.
  void GetInto(std::size_t i, Example* out) const;

  /// Returns the subset at the given row indices, in order.
  Dataset Subset(const std::vector<std::size_t>& indices) const;

  /// Fraction of examples with s == +1; 0 when empty.
  double GroupFraction() const;

  /// Fraction of examples with label == 1; 0 when empty.
  // lint-allow(test-only-api): tests assert the generators' label balance
  double PositiveFraction() const;

 private:
  // The checkpoint codec reads features_ directly: calling features()
  // during a snapshot capture would compact the matrix and discard the
  // spare pre-reserved rows the zero-alloc steady state depends on.
  friend struct StateCodecAccess;

  std::size_t dim_ = 0;
  /// Backing storage; may hold spare capacity rows beyond size(). Mutable so
  /// features() can compact lazily without breaking const-correct callers.
  mutable Matrix features_;
  std::vector<int> labels_;
  std::vector<int> sensitive_;
  std::vector<int> environments_;
};

}  // namespace faction

#endif  // FACTION_DATA_DATASET_H_
