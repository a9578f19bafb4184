#ifndef FACTION_STREAM_ORACLE_H_
#define FACTION_STREAM_ORACLE_H_

#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace faction {

/// Label oracle over one incoming task D_t^U. Candidates arrive with
/// features, sensitive attribute, and environment visible; the class label
/// is hidden until queried, and each query consumes one unit of the task
/// budget B. (The sensitive attribute is observable pre-query, matching the
/// fair-active-learning literature the paper baselines against.)
class LabelOracle {
 public:
  /// Wraps a task with the given query budget.
  LabelOracle(const Dataset& task, std::size_t budget);

  std::size_t task_size() const { return task_->size(); }
  std::size_t budget_remaining() const { return budget_; }
  std::size_t queries_used() const { return queries_; }

  /// Indices (into the task) still unlabeled, in ascending order, resized
  /// into *out so a loop-carried buffer is reused across acquisition
  /// iterations.
  void UnlabeledIndicesInto(std::vector<std::size_t>* out) const;

  std::size_t num_unlabeled() const { return task_->size() - num_labeled_; }

  // lint-allow(test-only-api): tests assert what QueryLabel/RevealFree marked
  bool IsLabeled(std::size_t index) const { return labeled_[index]; }

  /// Reveals the label of the sample at `index`, consuming one budget unit.
  /// Fails when the budget is exhausted, the index is out of range, or the
  /// sample was already queried.
  Result<int> QueryLabel(std::size_t index);

  /// Marks `index` labeled without consuming budget — used for the free
  /// warm-start labels every method receives.
  Result<int> RevealFree(std::size_t index);

  /// The underlying task with ground-truth labels. Reserved for evaluation
  /// code (test metrics and regret tracking); selection strategies must not
  /// touch labels they have not queried.
  const Dataset& ground_truth() const { return *task_; }

 private:
  const Dataset* task_;
  std::size_t budget_;
  std::size_t queries_ = 0;
  std::size_t num_labeled_ = 0;
  std::vector<bool> labeled_;
};

}  // namespace faction

#endif  // FACTION_STREAM_ORACLE_H_
