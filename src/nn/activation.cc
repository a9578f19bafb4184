#include "nn/activation.h"

#include "common/check.h"

namespace faction {

// The element loops store a select to every element, never an if/else:
// activation signs are random, so a compare-and-jump per element
// mispredicts about half the time, while the selects vectorize (at -O3,
// see CMakeLists.txt) into compare-and-mask code. Keep the stores
// unconditional — a form that leaves v[i] unchanged on one side lets GCC
// turn it back into a conditional store and a branch. NaN and -0.0 fail
// `0.0 < x`, so training maps both to +0.0 with a zero mask; the
// inference clamp tests `x < 0.0`, so it keeps NaN and -0.0 (nn_test
// pins both edge-case tables).
Matrix Relu::Forward(const Matrix& x) {
  Matrix out = x;
  mask_.ResizeForOverwrite(out.rows(), out.cols());
  double* v = out.data();
  double* m = mask_.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double in = v[i];
    m[i] = static_cast<double>(0.0 < in);
    v[i] = 0.0 < in ? in : 0.0;
  }
  return out;
}

Matrix Relu::ForwardInference(const Matrix& x) {
  Matrix out = x;
  double* v = out.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    v[i] = v[i] < 0.0 ? 0.0 : v[i];
  }
  return out;
}

Matrix Relu::Backward(const Matrix& dy) const {
  FACTION_CHECK_SAME_SHAPE(dy, mask_);
  Matrix dx = dy;
  double* v = dx.data();
  const double* m = mask_.data();
  for (std::size_t i = 0; i < dx.size(); ++i) v[i] *= m[i];
  return dx;
}

}  // namespace faction
