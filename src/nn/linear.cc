#include "nn/linear.h"

#include <cmath>

#include "common/check.h"

#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace faction {

Linear::Linear(std::size_t in_dim, std::size_t out_dim,
               const SpectralNormConfig& sn, Rng* rng)
    : sn_(sn),
      w_(out_dim, in_dim),
      b_(1, out_dim),
      gw_(out_dim, in_dim),
      gb_(1, out_dim),
      sn_rng_(rng->Fork()) {
  // He initialization: N(0, 2/fan_in), appropriate for ReLU stacks.
  const double std = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = rng->Gaussian(0.0, std);
  }
}

void Linear::RefreshSpectralScale() {
  if (!sn_.enabled) {
    scale_ = 1.0;
    return;
  }
  PowerIterationInto(w_, sn_.power_iterations, &sn_rng_, &sn_est_);
  sigma_ = sn_est_.sigma;
  FACTION_DCHECK_FINITE(sigma_);
  scale_ = sigma_ > sn_.coeff && sigma_ > 0.0 ? sn_.coeff / sigma_ : 1.0;
}

Matrix Linear::Forward(const Matrix& x) {
  Matrix y;
  ForwardInto(x, &y);
  return y;
}

void Linear::ForwardInto(const Matrix& x, Matrix* y, Matrix* relu_mask) {
  FACTION_CHECK_EQ(x.cols(), in_dim());
  RefreshSpectralScale();
  input_ = &x;  // read by BackwardInto; the caller keeps x alive
  GemmEpilogue ep;
  ep.scale = scale_;
  ep.bias = &b_;
  if (relu_mask != nullptr) {
    ep.act = GemmAct::kReluTrain;
    ep.relu_mask = relu_mask;
  }
  MatMulBtInto(x, w_, y, ep);
}

Matrix Linear::ForwardInference(const Matrix& x) const {
  Matrix y;
  ForwardInferenceInto(x, &y);
  return y;
}

void Linear::ForwardInferenceInto(const Matrix& x, Matrix* y,
                                  bool relu) const {
  FACTION_CHECK_EQ(x.cols(), in_dim());
  GemmEpilogue ep;
  ep.scale = scale_;
  ep.bias = &b_;
  if (relu) ep.act = GemmAct::kReluInference;
  MatMulBtInto(x, w_, y, ep);
}

Matrix Linear::Backward(const Matrix& dy) {
  Matrix dx;
  BackwardInto(dy, &dx);
  return dx;
}

void Linear::BackwardInto(const Matrix& dy, Matrix* dx,
                          const Matrix* dx_mask) {
  FACTION_CHECK(input_ != nullptr);
  FACTION_CHECK_EQ(dy.rows(), input_->rows());
  FACTION_CHECK_EQ(dy.cols(), out_dim());
  // dW_eff = dy^T x; with W_eff = scale*W (scale treated as constant),
  // dW = scale * dW_eff, accumulated straight into the gradient.
  MatMulAtAccumulateInto(dy, *input_, scale_, &gw_);
  ColSumsInto(dy, &db_scratch_);
  double* gb = gb_.data();
  const double* db = db_scratch_.data();
  for (std::size_t j = 0; j < b_.cols(); ++j) gb[j] += db[j];
  if (dx == nullptr) return;
  // dx = dy * W_eff = scale * dy * W, then the lower ReLU's mask.
  GemmEpilogue ep;
  ep.scale = scale_;
  if (dx_mask != nullptr) {
    ep.act = GemmAct::kMask;
    ep.grad_mask = dx_mask;
  }
  MatMulInto(dy, w_, dx, ep);
}

void Linear::ZeroGrad() {
  gw_.Fill(0.0);
  gb_.Fill(0.0);
}

}  // namespace faction
