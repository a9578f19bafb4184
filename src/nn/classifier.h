#ifndef FACTION_NN_CLASSIFIER_H_
#define FACTION_NN_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace faction {

class Workspace;

/// Abstract classifier-with-a-feature-space: the contract FACTION's
/// machinery needs from a backbone. Two implementations ship with the
/// library — the spectral-normalized MLP (the paper's tabular backbone)
/// and a small CNN (standing in for the paper's ResNet-18 on image
/// streams). The density estimator, the selection strategies, and the
/// online learner all program against this interface, so a new backbone
/// only has to implement it.
class FeatureClassifier {
 public:
  virtual ~FeatureClassifier() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t feature_dim() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Training forward pass: logits (n x num_classes); caches activations
  /// for Backward. x must stay alive and unchanged until the matching
  /// Backward: a first dense layer reads it there without a copy.
  virtual Matrix Forward(const Matrix& x) = 0;

  /// Allocation-aware training forward: writes logits into *out (resized,
  /// capacity retained). Value-identical to Forward. The base default
  /// delegates to Forward and copy-assigns; backbones on the zero-alloc
  /// path override it to write directly into the caller's buffer.
  virtual void ForwardInto(const Matrix& x, Matrix* out);

  /// Inference-only logits.
  virtual Matrix Logits(const Matrix& x) const = 0;

  /// Allocation-aware inference logits: intermediate activations live in
  /// the caller's Workspace, the result in *out. Bitwise-identical to
  /// Logits. The base default delegates to Logits and copy-assigns.
  virtual void LogitsInto(const Matrix& x, Workspace* ws, Matrix* out) const;

  /// Feature vectors z = r(x, theta) (n x feature_dim), inference path.
  virtual Matrix ExtractFeatures(const Matrix& x) const = 0;

  /// Allocation-aware feature extraction into *out via the caller's
  /// Workspace. Bitwise-identical to ExtractFeatures; base default
  /// delegates and copy-assigns.
  virtual void ExtractFeaturesInto(const Matrix& x, Workspace* ws,
                                   Matrix* out) const;

  /// Features and class probabilities of the same rows in one call:
  /// *features as ExtractFeaturesInto, *proba as PredictProbaInto, each
  /// bitwise-identical to its single call. The default makes exactly
  /// those two calls; a backbone whose head reads the feature layer
  /// overrides it to run the shared trunk once.
  virtual void ExtractFeaturesAndProbaInto(const Matrix& x, Workspace* ws,
                                           Matrix* features,
                                           Matrix* proba) const;

  /// Backpropagates dL/dlogits from the last Forward.
  virtual void Backward(const Matrix& dlogits) = 0;

  virtual void ZeroGrad() = 0;
  virtual std::vector<Matrix*> Parameters() = 0;
  /// Read-only parameter access (serialization, checksums, inspection);
  /// same tensors in the same stable order as the mutable overload.
  virtual std::vector<const Matrix*> Parameters() const = 0;
  virtual std::vector<Matrix*> Gradients() = 0;

  /// Fresh instance with the same architecture and new random weights.
  virtual std::unique_ptr<FeatureClassifier> CloneArchitecture(
      Rng* rng) const = 0;

  /// Copies parameters from an architecture-identical classifier.
  void CopyParametersFrom(const FeatureClassifier& other);

  /// Row-wise softmax class probabilities (inference path).
  Matrix PredictProba(const Matrix& x) const;

  /// Allocation-aware PredictProba: logits land in a Workspace buffer
  /// ("classifier.proba_logits"), probabilities in *out. Bitwise-identical
  /// to PredictProba.
  void PredictProbaInto(const Matrix& x, Workspace* ws, Matrix* out) const;

  /// Argmax class predictions (inference path).
  std::vector<int> Predict(const Matrix& x) const;
};

}  // namespace faction

#endif  // FACTION_NN_CLASSIFIER_H_
