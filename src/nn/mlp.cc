#include "nn/mlp.h"

#include <utility>

#include "common/check.h"
#include "common/workspace.h"
#include "tensor/ops.h"

namespace faction {

MlpClassifier::MlpClassifier(const MlpConfig& config, Rng* rng)
    : config_(config) {
  FACTION_CHECK_GE(config_.num_classes, std::size_t{2});
  std::size_t in = config_.input_dim;
  for (std::size_t width : config_.hidden_dims) {
    hidden_.push_back(
        std::make_unique<Linear>(in, width, config_.spectral, rng));
    in = width;
  }
  // The classification head is never spectrally normalized: the Lipschitz
  // constraint is a property of the feature extractor only.
  SpectralNormConfig no_sn;
  head_ = std::make_unique<Linear>(in, config_.num_classes, no_sn, rng);
  acts_.resize(hidden_.size());
  masks_.resize(hidden_.size());
}

Matrix MlpClassifier::Forward(const Matrix& x) {
  Matrix logits;
  ForwardInto(x, &logits);
  return logits;
}

void MlpClassifier::ForwardInto(const Matrix& x, Matrix* out) {
  FACTION_CHECK_EQ(x.cols(), config_.input_dim);
  const Matrix* h = &x;
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    hidden_[i]->ForwardInto(*h, &acts_[i], &masks_[i]);
    h = &acts_[i];
  }
  head_->ForwardInto(*h, out);
}

Matrix MlpClassifier::Logits(const Matrix& x) const {
  Workspace ws;
  Matrix logits;
  LogitsInto(x, &ws, &logits);
  return logits;
}

void MlpClassifier::LogitsInto(const Matrix& x, Workspace* ws,
                               Matrix* out) const {
  Matrix* features = ws->MatrixFor("mlp.infer_features", x.rows(),
                                   feature_dim());
  ExtractFeaturesInto(x, ws, features);
  head_->ForwardInferenceInto(*features, out);
}

Matrix MlpClassifier::ExtractFeatures(const Matrix& x) const {
  Workspace ws;
  Matrix features;
  ExtractFeaturesInto(x, &ws, &features);
  return features;
}

void MlpClassifier::ExtractFeaturesInto(const Matrix& x, Workspace* ws,
                                        Matrix* out) const {
  FACTION_CHECK_EQ(x.cols(), config_.input_dim);
  if (hidden_.empty()) {
    *out = x;  // copy-assign: reuses capacity across same-shape batches
    return;
  }
  // Hidden chain ping-pongs between two Workspace buffers; the final layer
  // writes straight into *out. The input of each layer never aliases its
  // output: x is the caller's matrix, and a/b alternate.
  const Matrix* h = &x;
  Matrix* a = ws->MatrixFor("mlp.infer_a", 0, 0);
  Matrix* b = ws->MatrixFor("mlp.infer_b", 0, 0);
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    Matrix* target = i + 1 == hidden_.size() ? out : a;
    hidden_[i]->ForwardInferenceInto(*h, target, /*relu=*/true);
    h = target;
    std::swap(a, b);
  }
}

void MlpClassifier::ExtractFeaturesAndProbaInto(const Matrix& x,
                                                Workspace* ws,
                                                Matrix* features,
                                                Matrix* proba) const {
  ExtractFeaturesInto(x, ws, features);
  Matrix* logits =
      ws->MatrixFor("classifier.proba_logits", x.rows(), num_classes());
  head_->ForwardInferenceInto(*features, logits);
  SoftmaxRowsInto(*logits, proba);
}

void MlpClassifier::Backward(const Matrix& dlogits) {
  // Each layer's dL/dx leaves its GEMM already through the lower layer's
  // ReLU mask. The first layer's dL/dx has no reader, so it gets a null
  // dx.
  const std::size_t n = hidden_.size();
  head_->BackwardInto(dlogits, n == 0 ? nullptr : &dbuf_,
                      n == 0 ? nullptr : &masks_[n - 1]);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    hidden_[i]->BackwardInto(dbuf_, i == 0 ? nullptr : &dbuf_swap_,
                             i == 0 ? nullptr : &masks_[i - 1]);
    std::swap(dbuf_, dbuf_swap_);
  }
}

void MlpClassifier::ZeroGrad() {
  for (auto& lin : hidden_) lin->ZeroGrad();
  head_->ZeroGrad();
}

std::vector<Matrix*> MlpClassifier::Parameters() {
  std::vector<Matrix*> out;
  for (auto& lin : hidden_) {
    out.push_back(lin->weight());
    out.push_back(lin->bias());
  }
  out.push_back(head_->weight());
  out.push_back(head_->bias());
  return out;
}

std::vector<const Matrix*> MlpClassifier::Parameters() const {
  std::vector<const Matrix*> out;
  for (const auto& lin : hidden_) {
    const Linear& layer = *lin;
    out.push_back(&layer.weight());
    out.push_back(&layer.bias());
  }
  const Linear& head = *head_;
  out.push_back(&head.weight());
  out.push_back(&head.bias());
  return out;
}

std::vector<Matrix*> MlpClassifier::Gradients() {
  std::vector<Matrix*> out;
  for (auto& lin : hidden_) {
    out.push_back(lin->weight_grad());
    out.push_back(lin->bias_grad());
  }
  out.push_back(head_->weight_grad());
  out.push_back(head_->bias_grad());
  return out;
}

}  // namespace faction
