#ifndef FACTION_NN_ACTIVATION_H_
#define FACTION_NN_ACTIVATION_H_

#include "tensor/matrix.h"

namespace faction {

/// ReLU activation with cached mask for backpropagation.
class Relu {
 public:
  /// Elementwise max(0, x); caches the active mask.
  Matrix Forward(const Matrix& x);

  /// Elementwise max(0, x) without caching (inference path).
  static Matrix ForwardInference(const Matrix& x);

  /// Backpropagates through the cached mask: dy * mask elementwise. Must
  /// follow a matching Forward.
  Matrix Backward(const Matrix& dy) const;

 private:
  Matrix mask_;  // 1.0 where the input was positive, else 0.0
};

}  // namespace faction

#endif  // FACTION_NN_ACTIVATION_H_
