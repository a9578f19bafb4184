#include "data/dataset.h"

namespace faction {

const Matrix& Dataset::features() const {
  if (features_.rows() != size()) {
    Matrix compact(size(), dim_);
    for (std::size_t i = 0; i < size(); ++i) {
      std::copy(features_.row_data(i), features_.row_data(i) + dim_,
                compact.row_data(i));
    }
    features_ = std::move(compact);
  }
  return features_;
}

Status Dataset::Append(const Example& example) {
  if (dim_ == 0 && features_.rows() == 0) {
    dim_ = example.x.size();
  }
  if (example.x.size() != dim_) {
    return Status::InvalidArgument(
        "example dimension " + std::to_string(example.x.size()) +
        " does not match dataset dimension " + std::to_string(dim_));
  }
  if (example.sensitive != -1 && example.sensitive != 1) {
    return Status::InvalidArgument("sensitive attribute must be -1 or +1");
  }
  if (example.label != 0 && example.label != 1) {
    return Status::InvalidArgument("label must be 0 or 1");
  }
  // Grow the feature matrix by one row. Matrix::Resize zero-fills, so copy
  // through a staging matrix; amortize by doubling capacity.
  const std::size_t n = labels_.size();
  if (features_.rows() <= n) {
    Matrix grown(n == 0 ? 8 : n * 2, dim_);
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(features_.row_data(i), features_.row_data(i) + dim_,
                grown.row_data(i));
    }
    features_ = std::move(grown);
  }
  std::copy(example.x.begin(), example.x.end(), features_.row_data(n));
  labels_.push_back(example.label);
  sensitive_.push_back(example.sensitive);
  environments_.push_back(example.environment);
  return Status::Ok();
}

void Dataset::Reserve(std::size_t rows) {
  labels_.reserve(rows);
  sensitive_.reserve(rows);
  environments_.reserve(rows);
  if (dim_ == 0 || rows <= features_.rows()) return;
  const std::size_t n = labels_.size();
  Matrix grown(rows, dim_);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(features_.row_data(i), features_.row_data(i) + dim_,
              grown.row_data(i));
  }
  features_ = std::move(grown);
}

Example Dataset::Get(std::size_t i) const {
  Example e;
  GetInto(i, &e);
  return e;
}

void Dataset::GetInto(std::size_t i, Example* out) const {
  FACTION_CHECK(i < size());
  out->x.assign(features_.row_data(i), features_.row_data(i) + dim_);
  out->label = labels_[i];
  out->sensitive = sensitive_[i];
  out->environment = environments_[i];
}

Dataset Dataset::Subset(const std::vector<std::size_t>& indices) const {
  Dataset out(dim_);
  for (std::size_t idx : indices) {
    const Status st = out.Append(Get(idx));
    FACTION_CHECK(st.ok());
  }
  return out;
}

double Dataset::GroupFraction() const {
  if (empty()) return 0.0;
  std::size_t pos = 0;
  for (int s : sensitive_) {
    if (s == 1) ++pos;
  }
  return static_cast<double>(pos) / static_cast<double>(size());
}

double Dataset::PositiveFraction() const {
  if (empty()) return 0.0;
  std::size_t pos = 0;
  for (int y : labels_) {
    if (y == 1) ++pos;
  }
  return static_cast<double>(pos) / static_cast<double>(size());
}

}  // namespace faction
