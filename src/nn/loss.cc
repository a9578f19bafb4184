#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/workspace.h"

#include "tensor/ops.h"

namespace faction {

double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* dlogits) {
  FACTION_CHECK(dlogits != nullptr);
  FACTION_CHECK_LEN(labels, logits.rows());
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  const Matrix logp = LogSoftmaxRows(logits);
  double loss = 0.0;
  dlogits->Resize(n, c);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    FACTION_CHECK_GE(y, 0);
    FACTION_CHECK_LT(static_cast<std::size_t>(y), c);
    loss -= logp(i, static_cast<std::size_t>(y));
    double* drow = dlogits->row_data(i);
    const double* lrow = logp.row_data(i);
    for (std::size_t j = 0; j < c; ++j) {
      drow[j] = std::exp(lrow[j]);  // softmax probability
    }
    drow[static_cast<std::size_t>(y)] -= 1.0;
    for (std::size_t j = 0; j < c; ++j) drow[j] /= static_cast<double>(n);
  }
  const double mean_loss = loss / static_cast<double>(n);
  FACTION_DCHECK_FINITE(mean_loss);
  return mean_loss;
}

double FusedSoftmaxCrossEntropy(const Matrix& logits,
                                const std::vector<int>& labels,
                                Matrix* dlogits) {
  FACTION_CHECK(dlogits != nullptr);
  FACTION_CHECK_LEN(labels, logits.rows());
  const std::size_t n = logits.rows();
  const std::size_t c = logits.cols();
  const double batch_n = static_cast<double>(n);
  dlogits->ResizeForOverwrite(n, c);
  // One pass per row: max, stable log-sum-exp, then gradient written
  // straight into dlogits. Every double matches the two-pass reference:
  // lse = mx + log(sum exp(r[j]-mx)) with the same ascending-j sum, the
  // gradient is exp(r[j]-lse) — the same value LogSoftmaxRows would have
  // materialized — and the per-row loss is -(r[y]-lse), subtracted in
  // ascending row order as the reference's `loss -= logp(i, y)` loop does.
  // The max is the reference's sequential std::max scan and the gradient
  // scale one rounded division per element, both inline (every trained
  // head has 2 classes). A maximal entry's exp(r[j] - mx) is exp(+-0) = 1
  // exactly and is not computed, but only for a finite mx: inf - inf is
  // NaN.
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    FACTION_CHECK_GE(y, 0);
    FACTION_CHECK_LT(static_cast<std::size_t>(y), c);
    const double* lrow = logits.row_data(i);
    double* drow = dlogits->row_data(i);
    double mx = lrow[0];
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, lrow[j]);
    const bool mx_finite = std::isfinite(mx);
    double sum = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      sum += mx_finite && lrow[j] == mx ? 1.0 : std::exp(lrow[j] - mx);
    }
    const double lse = mx + std::log(sum);
    loss -= lrow[static_cast<std::size_t>(y)] - lse;
    for (std::size_t j = 0; j < c; ++j) {
      drow[j] = std::exp(lrow[j] - lse);
    }
    drow[static_cast<std::size_t>(y)] -= 1.0;
    for (std::size_t j = 0; j < c; ++j) drow[j] /= batch_n;
  }
  const double mean_loss = loss / static_cast<double>(n);
  FACTION_DCHECK_FINITE(mean_loss);
  FACTION_DCHECK_FINITE_ALL(dlogits->data(), dlogits->size());
  return mean_loss;
}

Result<double> AddFairnessPenalty(const Matrix& logits,
                                  const std::vector<int>& labels,
                                  const std::vector<int>& sensitive,
                                  const FairnessPenaltyConfig& config,
                                  Matrix* dlogits, Workspace* workspace) {
  FACTION_CHECK(dlogits != nullptr);
  if (logits.cols() != 2) {
    return Status::InvalidArgument(
        "fairness penalty requires binary classification (2 logits)");
  }
  if (logits.rows() != sensitive.size() ||
      dlogits->rows() != logits.rows() || dlogits->cols() != logits.cols()) {
    return Status::InvalidArgument("fairness penalty: shape mismatch");
  }
  const std::size_t n = logits.rows();

  // Temporaries come from the caller's arena when one is supplied.
  std::vector<double> local_coeffs;
  Matrix local_proba;
  std::vector<double>* coeffs = &local_coeffs;
  Matrix* proba = &local_proba;
  if (workspace != nullptr) {
    coeffs = workspace->DoublesFor("loss.fair_coeffs", n);
    proba = workspace->MatrixFor("loss.fair_proba", n, logits.cols());
  }
  std::size_t m = 0;
  FACTION_RETURN_IF_ERROR(RelaxedFairnessCoefficientsInto(
      config.notion, sensitive, labels, &m, coeffs));

  // Scores h_i = softmax probability of class 1; v = (1/M) sum c_i h_i.
  SoftmaxRowsInto(logits, proba);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) v += (*coeffs)[i] * (*proba)(i, 1);
  v /= static_cast<double>(m);
  FACTION_DCHECK_FINITE(v);

  // Penalty value and its derivative w.r.t. v.
  double penalty = 0.0;
  double dpen_dv = 0.0;
  if (config.symmetric) {
    const double excess = std::fabs(v) - config.epsilon;
    if (excess > 0.0) {
      penalty = excess;
      dpen_dv = v > 0.0 ? 1.0 : -1.0;
    }
  } else {
    // Literal Eq. 8-9 form: L_fair = [v]_+, total adds mu*([v]_+ - eps).
    if (v > 0.0) {
      penalty = v;
      dpen_dv = 1.0;
    }
    penalty -= config.epsilon;
  }

  if (dpen_dv != 0.0) {
    // dv/dlogit_{i,k} = (c_i / M) * p1_i * (delta_{1k} - p_{ik}).
    const double scale = config.mu * dpen_dv / static_cast<double>(m);
    for (std::size_t i = 0; i < n; ++i) {
      if ((*coeffs)[i] == 0.0) continue;
      const double p0 = (*proba)(i, 0);
      const double p1 = (*proba)(i, 1);
      const double base = scale * (*coeffs)[i] * p1;
      (*dlogits)(i, 0) += base * (-p0);
      (*dlogits)(i, 1) += base * (1.0 - p1);
    }
  }
  return config.mu * penalty;
}

double SoftmaxNll(const Matrix& logits, const std::vector<int>& labels) {
  FACTION_CHECK_LEN(labels, logits.rows());
  const Matrix logp = LogSoftmaxRows(logits);
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    loss -= logp(i, static_cast<std::size_t>(labels[i]));
  }
  return logits.rows() > 0 ? loss / static_cast<double>(logits.rows()) : 0.0;
}

}  // namespace faction
