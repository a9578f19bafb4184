#include "nn/optimizer.h"

#include "common/check.h"

namespace faction {

SgdOptimizer::SgdOptimizer(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

void SgdOptimizer::Prepare(const std::vector<Matrix*>& params) {
  if (!velocity_.empty() || momentum_ == 0.0) return;
  velocity_.reserve(params.size());
  for (Matrix* p : params) velocity_.emplace_back(p->rows(), p->cols());
}

bool SgdOptimizer::Step(const std::vector<Matrix*>& params,
                        const std::vector<Matrix*>& grads) {
  FACTION_CHECK_LEN(grads, params.size());
  Prepare(params);
  // Hyperparameters and the decay factor live in locals: member reads
  // would be reloaded on every element (they may alias the stores), which
  // keeps these loops from vectorizing. One pass per parameter: decay,
  // momentum, update and range check per element. Without weight decay
  // the factor is exactly 1.0, and p * 1.0 is p.
  const double lr = lr_;
  const double momentum = momentum_;
  const double decay = 1.0 - lr_ * weight_decay_;
  std::uint64_t in_range = ~std::uint64_t{0};
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix& p = *params[i];
    const Matrix& g = *grads[i];
    FACTION_CHECK_SAME_SHAPE(p, g);
    double* pd = p.data();
    const double* gd = g.data();
    const std::size_t n = p.size();
    if (momentum != 0.0) {
      double* vd = velocity_[i].data();
      for (std::size_t k = 0; k < n; ++k) {
        vd[k] = momentum * vd[k] + gd[k];
        pd[k] = pd[k] * decay - lr * vd[k];
        in_range &= InRangeBits(pd[k]);
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        pd[k] = pd[k] * decay - lr * gd[k];
        in_range &= InRangeBits(pd[k]);
      }
    }
  }
  return (in_range >> 63) != 0;
}

}  // namespace faction
