#include "stream/oracle.h"

namespace faction {

LabelOracle::LabelOracle(const Dataset& task, std::size_t budget)
    : task_(&task), budget_(budget), labeled_(task.size(), false) {}

void LabelOracle::UnlabeledIndicesInto(std::vector<std::size_t>* out) const {
  out->clear();
  out->reserve(task_->size() - num_labeled_);
  for (std::size_t i = 0; i < labeled_.size(); ++i) {
    if (!labeled_[i]) out->push_back(i);
  }
}

Result<int> LabelOracle::QueryLabel(std::size_t index) {
  if (index >= task_->size()) {
    return Status::OutOfRange("oracle: index " + std::to_string(index) +
                              " out of range");
  }
  if (labeled_[index]) {
    return Status::FailedPrecondition("oracle: sample already labeled");
  }
  if (budget_ == 0) {
    return Status::ResourceExhausted("oracle: query budget exhausted");
  }
  --budget_;
  ++queries_;
  labeled_[index] = true;
  ++num_labeled_;
  return task_->labels()[index];
}

Result<int> LabelOracle::RevealFree(std::size_t index) {
  if (index >= task_->size()) {
    return Status::OutOfRange("oracle: index out of range");
  }
  if (labeled_[index]) {
    return Status::FailedPrecondition("oracle: sample already labeled");
  }
  labeled_[index] = true;
  ++num_labeled_;
  return task_->labels()[index];
}

}  // namespace faction
