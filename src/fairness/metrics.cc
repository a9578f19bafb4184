#include "fairness/metrics.h"

#include <cmath>

namespace faction {

namespace {

Status CheckSizes(std::size_t a, std::size_t b, const char* what) {
  if (a != b) {
    return Status::InvalidArgument(std::string(what) +
                                   " size mismatch: " + std::to_string(a) +
                                   " vs " + std::to_string(b));
  }
  if (a == 0) {
    return Status::InvalidArgument(std::string(what) + ": empty input");
  }
  return Status::Ok();
}

}  // namespace

Result<double> DemographicParityDifference(const std::vector<int>& yhat,
                                           const std::vector<int>& sensitive) {
  FACTION_RETURN_IF_ERROR(CheckSizes(yhat.size(), sensitive.size(), "DDP"));
  std::size_t n_pos = 0, n_neg = 0, hit_pos = 0, hit_neg = 0;
  for (std::size_t i = 0; i < yhat.size(); ++i) {
    if (sensitive[i] == 1) {
      ++n_pos;
      if (yhat[i] == 1) ++hit_pos;
    } else {
      ++n_neg;
      if (yhat[i] == 1) ++hit_neg;
    }
  }
  if (n_pos == 0 || n_neg == 0) {
    return Status::FailedPrecondition(
        "DDP undefined: a sensitive group is empty");
  }
  const double rate_pos =
      static_cast<double>(hit_pos) / static_cast<double>(n_pos);
  const double rate_neg =
      static_cast<double>(hit_neg) / static_cast<double>(n_neg);
  return std::fabs(rate_pos - rate_neg);
}

Result<double> EqualizedOddsDifference(const std::vector<int>& yhat,
                                       const std::vector<int>& labels,
                                       const std::vector<int>& sensitive) {
  FACTION_RETURN_IF_ERROR(CheckSizes(yhat.size(), labels.size(), "EOD"));
  FACTION_RETURN_IF_ERROR(CheckSizes(yhat.size(), sensitive.size(), "EOD"));
  double worst = -1.0;
  for (int y : {0, 1}) {
    std::size_t n_pos = 0, n_neg = 0, hit_pos = 0, hit_neg = 0;
    for (std::size_t i = 0; i < yhat.size(); ++i) {
      if (labels[i] != y) continue;
      if (sensitive[i] == 1) {
        ++n_pos;
        if (yhat[i] == 1) ++hit_pos;
      } else {
        ++n_neg;
        if (yhat[i] == 1) ++hit_neg;
      }
    }
    if (n_pos == 0 || n_neg == 0) continue;  // cell not comparable
    const double gap =
        std::fabs(static_cast<double>(hit_pos) / static_cast<double>(n_pos) -
                  static_cast<double>(hit_neg) / static_cast<double>(n_neg));
    if (gap > worst) worst = gap;
  }
  if (worst < 0.0) {
    return Status::FailedPrecondition(
        "EOD undefined: no label cell contains both sensitive groups");
  }
  return worst;
}

Result<double> MutualInformation(const std::vector<int>& yhat,
                                 const std::vector<int>& sensitive) {
  FACTION_RETURN_IF_ERROR(CheckSizes(yhat.size(), sensitive.size(), "MI"));
  // Joint counts over (yhat in {0,1}) x (s in {-1,+1}).
  double joint[2][2] = {{0, 0}, {0, 0}};
  const double n = static_cast<double>(yhat.size());
  for (std::size_t i = 0; i < yhat.size(); ++i) {
    const int a = yhat[i] == 1 ? 1 : 0;
    const int b = sensitive[i] == 1 ? 1 : 0;
    joint[a][b] += 1.0;
  }
  double p_yhat[2] = {0, 0};
  double p_s[2] = {0, 0};
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      joint[a][b] /= n;
      p_yhat[a] += joint[a][b];
      p_s[b] += joint[a][b];
    }
  }
  double mi = 0.0;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (joint[a][b] <= 0.0) continue;
      mi += joint[a][b] * std::log(joint[a][b] / (p_yhat[a] * p_s[b]));
    }
  }
  // Clamp tiny negative values caused by floating-point rounding.
  return mi < 0.0 ? 0.0 : mi;
}

Result<double> Accuracy(const std::vector<int>& yhat,
                        const std::vector<int>& labels) {
  FACTION_RETURN_IF_ERROR(CheckSizes(yhat.size(), labels.size(), "accuracy"));
  std::size_t hits = 0;
  for (std::size_t i = 0; i < yhat.size(); ++i) {
    if (yhat[i] == labels[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(yhat.size());
}

}  // namespace faction
