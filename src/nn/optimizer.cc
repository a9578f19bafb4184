#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace faction {

SgdOptimizer::SgdOptimizer(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

void SgdOptimizer::Prepare(const std::vector<Matrix*>& params) {
  if (!velocity_.empty() || momentum_ == 0.0) return;
  velocity_.reserve(params.size());
  for (Matrix* p : params) velocity_.emplace_back(p->rows(), p->cols());
}

void SgdOptimizer::Step(const std::vector<Matrix*>& params,
                        const std::vector<Matrix*>& grads) {
  FACTION_CHECK_LEN(grads, params.size());
  Prepare(params);
  // Hyperparameters and the decay factor live in locals: member reads
  // would be reloaded on every element (they may alias the stores), which
  // keeps these loops from vectorizing. Same values, same per-element ops.
  const double lr = lr_;
  const double momentum = momentum_;
  const double decay = 1.0 - lr_ * weight_decay_;
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    FACTION_CHECK_SAME_SHAPE(p, g);
    double* pd = p.data();
    const double* gd = g.data();
    const std::size_t n = p.size();
    if (weight_decay_ != 0.0) {
      for (std::size_t k = 0; k < n; ++k) pd[k] *= decay;
    }
    if (momentum != 0.0) {
      double* vd = velocity_[i].data();
      for (std::size_t k = 0; k < n; ++k) {
        vd[k] = momentum * vd[k] + gd[k];
        pd[k] -= lr * vd[k];
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) pd[k] -= lr * gd[k];
    }
  }
}

AdamOptimizer::AdamOptimizer(double lr, double beta1, double beta2, double eps,
                             double weight_decay)
    : lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {}

void AdamOptimizer::Step(const std::vector<Matrix*>& params,
                         const std::vector<Matrix*>& grads) {
  FACTION_CHECK_LEN(grads, params.size());
  if (m_.empty()) {
    for (Matrix* p : params) {
      m_.emplace_back(p->rows(), p->cols());
      v_.emplace_back(p->rows(), p->cols());
    }
  }
  ++step_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    FACTION_CHECK_SAME_SHAPE(p, g);
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (std::size_t k = 0; k < p.size(); ++k) {
      const double gk = g.data()[k];
      m.data()[k] = beta1_ * m.data()[k] + (1.0 - beta1_) * gk;
      v.data()[k] = beta2_ * v.data()[k] + (1.0 - beta2_) * gk * gk;
      const double mhat = m.data()[k] / bc1;
      const double vhat = v.data()[k] / bc2;
      double update = mhat / (std::sqrt(vhat) + eps_);
      if (weight_decay_ != 0.0) update += weight_decay_ * p.data()[k];
      p.data()[k] -= lr_ * update;
    }
  }
}

}  // namespace faction
