#include "nn/loss.h"

#include <cmath>

#include "common/check.h"
#include "common/workspace.h"

#include "tensor/ops.h"
#include "tensor/simd.h"

namespace faction {

namespace {

// Turns log-probabilities held in *d into the cross-entropy gradient in
// place: exp (one vexp call over the batch), minus 1 at the label, divided
// by the batch size. The labels were range-checked by MeanNll.
void GradientFromLogProba(const std::vector<int>& labels, Matrix* d) {
  ActiveSimd().vexp(d->data(), d->data(), d->size());
  const double batch_n = static_cast<double>(d->rows());
  for (std::size_t i = 0; i < d->rows(); ++i) {
    double* drow = d->row_data(i);
    drow[static_cast<std::size_t>(labels[i])] -= 1.0;
    for (std::size_t j = 0; j < d->cols(); ++j) drow[j] /= batch_n;
  }
}

// -sum of logp(i, y_i) in ascending row order, over the batch size.
double MeanNll(const Matrix& logp, const std::vector<int>& labels) {
  FACTION_CHECK_LEN(labels, logp.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < logp.rows(); ++i) {
    const int y = labels[i];
    FACTION_CHECK_GE(y, 0);
    FACTION_CHECK_LT(static_cast<std::size_t>(y), logp.cols());
    loss -= logp(i, static_cast<std::size_t>(y));
  }
  return loss / static_cast<double>(logp.rows());
}

}  // namespace

double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* dlogits) {
  FACTION_CHECK(dlogits != nullptr);
  const Matrix logp = LogSoftmaxRows(logits);
  const double mean_loss = MeanNll(logp, labels);
  *dlogits = logp;
  GradientFromLogProba(labels, dlogits);
  FACTION_DCHECK_FINITE(mean_loss);
  return mean_loss;
}

double FusedSoftmaxCrossEntropy(const Matrix& logits,
                                const std::vector<int>& labels,
                                Matrix* dlogits, Matrix* proba) {
  FACTION_CHECK(dlogits != nullptr);
  // The log-probabilities are formed in dlogits itself, the loss read off
  // them, and the gradient made from them in place: the same elements in
  // the same order as the two-pass path, with no intermediate matrix.
  LogSoftmaxRowsInto(logits, dlogits, proba);
  const double mean_loss = MeanNll(*dlogits, labels);
  GradientFromLogProba(labels, dlogits);
  FACTION_DCHECK_FINITE(mean_loss);
  FACTION_DCHECK_FINITE_ALL(dlogits->data(), dlogits->size());
  return mean_loss;
}

Result<double> AddFairnessPenalty(const Matrix& proba,
                                  const std::vector<int>& labels,
                                  const std::vector<int>& sensitive,
                                  const FairnessPenaltyConfig& config,
                                  Matrix* dlogits, Workspace* workspace) {
  FACTION_CHECK(dlogits != nullptr);
  if (proba.cols() != 2) {
    return Status::InvalidArgument(
        "fairness penalty requires binary classification (2 logits)");
  }
  if (proba.rows() != sensitive.size() ||
      dlogits->rows() != proba.rows() || dlogits->cols() != proba.cols()) {
    return Status::InvalidArgument("fairness penalty: shape mismatch");
  }
  const std::size_t n = proba.rows();

  // The coefficients come from the caller's arena when one is supplied.
  std::vector<double> local_coeffs;
  std::vector<double>* coeffs = &local_coeffs;
  if (workspace != nullptr) {
    coeffs = workspace->DoublesFor("loss.fair_coeffs", n);
  }
  std::size_t m = 0;
  FACTION_RETURN_IF_ERROR(RelaxedFairnessCoefficientsInto(
      config.notion, sensitive, labels, &m, coeffs));

  // Scores h_i = softmax probability of class 1; v = (1/M) sum c_i h_i.
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) v += (*coeffs)[i] * proba(i, 1);
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
      const double p0 = proba(i, 0);
      const double p1 = proba(i, 1);
      const double base = scale * (*coeffs)[i] * p1;
      (*dlogits)(i, 0) += base * (-p0);
      (*dlogits)(i, 1) += base * (1.0 - p1);
    }
  }
  return config.mu * penalty;
}

double SoftmaxNll(const Matrix& logits, const std::vector<int>& labels) {
  FACTION_CHECK_LEN(labels, logits.rows());
  return logits.rows() > 0 ? MeanNll(LogSoftmaxRows(logits), labels) : 0.0;
}

}  // namespace faction
