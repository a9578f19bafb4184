#ifndef FACTION_NN_OPTIMIZER_H_
#define FACTION_NN_OPTIMIZER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/matrix.h"

namespace faction {

/// The range test of the trainer's divergence guard (nn/trainer.h): a
/// value is in range when it is finite and below 2^256 (about 1.2e77) in
/// magnitude, so the squares and sums built from it cannot overflow. The
/// result's sign bit is set exactly for an in-range value: AND the results
/// for many values and test the sign bit once. Integer ANDs vectorize
/// where a branch per value would not.
inline std::uint64_t InRangeBits(double v) {
  constexpr std::uint64_t kMagnitude = ~(std::uint64_t{1} << 63);
  constexpr std::uint64_t kLimit = std::uint64_t{1023 + 256} << 52;  // 2^256
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  // Magnitude bits order like the magnitudes, with infinity and NaN above
  // every finite value; the subtraction borrows into the sign bit exactly
  // when the magnitude is below the limit.
  return (bits & kMagnitude) - kLimit;
}

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
  /// Returns whether every updated value is in range (InRangeBits), for
  /// the trainer's divergence guard; testing the values as the update
  /// writes them costs next to nothing.
  bool Step(const std::vector<Matrix*>& params,
            const std::vector<Matrix*>& grads);

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<Matrix> velocity_;
};

}  // namespace faction

#endif  // FACTION_NN_OPTIMIZER_H_
