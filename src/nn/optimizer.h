#ifndef FACTION_NN_OPTIMIZER_H_
#define FACTION_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/matrix.h"

namespace faction {

/// SGD with optional momentum and decoupled weight decay over a fixed list
/// of parameter tensors. The momentum state is indexed by position, so the
/// same parameter list (same order, same shapes) must be passed on every
/// step.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double lr, double momentum = 0.0,
                        double weight_decay = 0.0);

  /// Pre-sizes the momentum state for the given parameter list so the
  /// first Step performs no allocation. Optional: Step self-initializes
  /// lazily when Prepare was not called.
  void Prepare(const std::vector<Matrix*>& params);

  /// Applies one update step: params[i] is updated in place using grads[i].
  void Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads);

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<Matrix> velocity_;
};

}  // namespace faction

#endif  // FACTION_NN_OPTIMIZER_H_
