#include "nn/activation.h"

#include "common/check.h"

namespace faction {

Matrix Relu::Forward(const Matrix& x) {
  Matrix out = x;
  ForwardInPlace(&out);
  return out;
}

// The element loops store a select to every element, never an if/else:
// activation signs are random, so a compare-and-jump per element
// mispredicts about half the time, while the selects vectorize (at -O3,
// see CMakeLists.txt) into compare-and-mask code. Keep the stores
// unconditional — a form that leaves v[i] unchanged on one side lets GCC
// turn it back into a conditional store and a branch. NaN and -0.0 fail
// `0.0 < x`, so training maps both to +0.0 with a zero mask; the
// inference clamp tests `x < 0.0`, so it keeps NaN and -0.0 (nn_test pins
// both edge-case tables).
void Relu::ForwardInPlace(Matrix* x) {
  mask_.ResizeForOverwrite(x->rows(), x->cols());
  double* v = x->data();
  double* m = mask_.data();
  for (std::size_t i = 0; i < x->size(); ++i) {
    const double in = v[i];
    m[i] = static_cast<double>(0.0 < in);
    v[i] = 0.0 < in ? in : 0.0;
  }
}

Matrix Relu::ForwardInference(const Matrix& x) {
  Matrix out = x;
  ForwardInferenceInPlace(&out);
  return out;
}

void Relu::ForwardInferenceInPlace(Matrix* x) {
  double* v = x->data();
  for (std::size_t i = 0; i < x->size(); ++i) {
    v[i] = v[i] < 0.0 ? 0.0 : v[i];
  }
}

Matrix Relu::Backward(const Matrix& dy) const {
  Matrix dx = dy;
  BackwardInPlace(&dx);
  return dx;
}

void Relu::BackwardInPlace(Matrix* dy) const {
  FACTION_CHECK_SAME_SHAPE(*dy, mask_);
  double* v = dy->data();
  const double* m = mask_.data();
  for (std::size_t i = 0; i < dy->size(); ++i) v[i] *= m[i];
}

}  // namespace faction
