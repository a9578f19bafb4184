#ifndef FACTION_NN_MLP_H_
#define FACTION_NN_MLP_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/classifier.h"
#include "nn/linear.h"
#include "tensor/matrix.h"

namespace faction {

struct StateCodecAccess;  // serve/state_codec.cc checkpoint accessor

/// Architecture of the classifier/feature-extractor. The paper uses a
/// spectral-normalized ResNet-18 for images and a 2-layer MLP for tabular
/// data; this library's backbone is the MLP (see DESIGN.md for the
/// substitution rationale). The last hidden activation is the feature vector
/// z = r(x, theta) consumed by the density estimator.
struct MlpConfig {
  std::size_t input_dim = 16;
  /// Hidden widths; the final entry is the feature dimension of z. An
  /// empty list yields a *linear* softmax model (multiclass logistic
  /// regression) whose feature vector is the raw input — the convex
  /// instantiation under which the paper's Theorem 1 assumptions hold.
  std::vector<std::size_t> hidden_dims = {64, 16};
  std::size_t num_classes = 2;
  SpectralNormConfig spectral;
};

/// MLP classifier with an exposed feature layer, layer-wise backprop, and
/// parameter access for optimizers. Move-only (owns training caches).
class MlpClassifier : public FeatureClassifier {
 public:
  MlpClassifier(const MlpConfig& config, Rng* rng);

  MlpClassifier(MlpClassifier&&) = default;
  MlpClassifier& operator=(MlpClassifier&&) = default;
  MlpClassifier(const MlpClassifier&) = delete;
  MlpClassifier& operator=(const MlpClassifier&) = delete;

  const MlpConfig& config() const { return config_; }
  std::size_t input_dim() const override { return config_.input_dim; }
  std::size_t num_classes() const override { return config_.num_classes; }
  std::size_t feature_dim() const override {
    return config_.hidden_dims.empty() ? config_.input_dim
                                       : config_.hidden_dims.back();
  }

  /// Training forward pass: returns logits (n x num_classes), caching all
  /// intermediate activations for Backward.
  Matrix Forward(const Matrix& x) override;

  /// Allocation-free training forward: logits land in *out (resized,
  /// capacity retained). Value-identical to Forward.
  void ForwardInto(const Matrix& x, Matrix* out) override;

  /// Inference-only logits (no caches touched).
  Matrix Logits(const Matrix& x) const override;

  /// Allocation-free inference logits: the hidden chain ping-pongs through
  /// two Workspace buffers ("mlp.infer_a"/"mlp.infer_b", plus
  /// "mlp.infer_features" for the final hidden activation), the result
  /// goes to *out. Bitwise-identical to Logits.
  void LogitsInto(const Matrix& x, Workspace* ws, Matrix* out) const override;

  /// Feature vectors z = r(x, theta): the last hidden activation
  /// (n x feature_dim). Inference path.
  Matrix ExtractFeatures(const Matrix& x) const override;

  /// Allocation-free feature extraction into *out via the caller's
  /// Workspace ping-pong buffers. Bitwise-identical to ExtractFeatures.
  void ExtractFeaturesInto(const Matrix& x, Workspace* ws,
                           Matrix* out) const override;

  /// Runs the hidden trunk once into *features, then the head and a
  /// row softmax into *proba (logits in the Workspace buffer
  /// "classifier.proba_logits"). Bitwise-identical to the two-call
  /// default, which would run the trunk twice.
  void ExtractFeaturesAndProbaInto(const Matrix& x, Workspace* ws,
                                   Matrix* features,
                                   Matrix* proba) const override;

  /// Backpropagates dL/dlogits from the last Forward, accumulating
  /// parameter gradients.
  void Backward(const Matrix& dlogits) override;

  /// Clears all accumulated gradients.
  void ZeroGrad() override;

  /// Parameters and matching gradients, in a stable order.
  std::vector<Matrix*> Parameters() override;
  std::vector<const Matrix*> Parameters() const override;
  std::vector<Matrix*> Gradients() override;

  std::unique_ptr<FeatureClassifier> CloneArchitecture(
      Rng* rng) const override {
    return std::make_unique<MlpClassifier>(config_, rng);
  }

 private:
  friend struct StateCodecAccess;

  MlpConfig config_;
  std::vector<std::unique_ptr<Linear>> hidden_;
  std::unique_ptr<Linear> head_;
  // Persistent training buffers (reused across minibatches): one
  // activation and one ReLU mask per hidden layer (each hidden Linear
  // fuses its ReLU), plus a gradient ping-pong pair for Backward.
  // Capacity is retained, so steady-state steps allocate only the
  // returned logits matrix.
  std::vector<Matrix> acts_;
  std::vector<Matrix> masks_;
  Matrix dbuf_;
  Matrix dbuf_swap_;
};

}  // namespace faction

#endif  // FACTION_NN_MLP_H_
