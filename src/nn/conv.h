#ifndef FACTION_NN_CONV_H_
#define FACTION_NN_CONV_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/classifier.h"
#include "nn/conv_kernels.h"
#include "nn/linear.h"
#include "tensor/image.h"
#include "tensor/im2col.h"
#include "tensor/matrix.h"

namespace faction {

/// 3x3 same-padding convolution (stride 1) with cached activations for
/// backprop. Forward/Backward run on the GEMM-lowered im2col kernels from
/// nn/conv_kernels.h (bitwise identical to the retained naive reference,
/// see ApplyNaive), parallel over samples with per-chunk scratch reused
/// across minibatches.
class Conv2d {
 public:
  Conv2d(const ImageShape& in, std::size_t out_channels, Rng* rng);

  const ImageShape& input_shape() const { return in_; }
  ImageShape output_shape() const {
    return ImageShape{out_channels_, in_.height, in_.width};
  }

  /// x: (n x in.Flat()) -> (n x out.Flat()); caches x for Backward.
  Matrix Forward(const Matrix& x);

  /// Inference path (no cache).
  Matrix ForwardInference(const Matrix& x) const;

  /// dL/dy -> dL/dx, accumulating weight/bias gradients.
  Matrix Backward(const Matrix& dy);

  void ZeroGrad();
  Matrix* weight() { return &w_; }
  Matrix* bias() { return &b_; }
  Matrix* weight_grad() { return &gw_; }
  Matrix* bias_grad() { return &gb_; }
  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }

  /// Serial naive-loop forward, retained as the bitwise-parity reference
  /// for the GEMM-lowered path (parity pinned by tests, speedup by
  /// tests/speed_guard_test).
  // lint-allow(test-only-api): naive-loop parity oracle for Apply
  Matrix ApplyNaive(const Matrix& x) const;

  static constexpr std::size_t kKernel = 3;

 private:
  Matrix Apply(const Matrix& x) const;
  ConvGeometry Geometry() const;
  /// Grows the per-chunk scratch pool to `nchunks` entries; called before
  /// every parallel region so worker chunk `i` can use scratch_[i] without
  /// synchronization.
  void EnsureScratch(std::size_t nchunks) const;

  ImageShape in_;
  std::size_t out_channels_;
  Matrix w_;   // (out_channels x in_channels*3*3)
  Matrix b_;   // (1 x out_channels)
  Matrix gw_;
  Matrix gb_;
  Matrix cached_input_;
  // Per-parallel-chunk im2col scratch, reused across minibatches. mutable:
  // scratch only, never observable state. Chunk-disjoint by construction.
  mutable std::vector<ConvScratch> scratch_;
  // Per-chunk gradient partials (see Backward), reused across steps.
  Matrix gw_partial_;
  Matrix gb_partial_;
};

/// 2x2 max pooling with stride 2 (input height/width must be even).
class MaxPool2d {
 public:
  explicit MaxPool2d(const ImageShape& in);

  ImageShape output_shape() const {
    return ImageShape{in_.channels, in_.height / 2, in_.width / 2};
  }

  Matrix Forward(const Matrix& x);
  Matrix ForwardInference(const Matrix& x) const;
  Matrix Backward(const Matrix& dy) const;

 private:
  Matrix Apply(const Matrix& x, std::vector<std::size_t>* argmax) const;

  ImageShape in_;
  std::vector<std::size_t> cached_argmax_;  // flat source index per output
  std::size_t cached_rows_ = 0;
};

/// Configuration of the small CNN backbone: two conv+pool stages followed
/// by a (optionally spectral-normalized) feature layer, standing in for
/// the paper's spectral-normalized ResNet-18 on image streams (see
/// DESIGN.md's substitution table).
struct ConvNetConfig {
  ImageShape input;
  std::size_t conv1_filters = 8;
  std::size_t conv2_filters = 8;
  std::size_t feature_dim = 16;
  std::size_t num_classes = 2;
  SpectralNormConfig spectral;  ///< applied to the feature Linear
};

/// CNN classifier implementing the FeatureClassifier contract; usable as a
/// drop-in backbone for the online learner via
/// OnlineLearnerConfig::model_factory.
class ConvNetClassifier : public FeatureClassifier {
 public:
  ConvNetClassifier(const ConvNetConfig& config, Rng* rng);

  const ConvNetConfig& config() const { return config_; }
  std::size_t input_dim() const override { return config_.input.Flat(); }
  std::size_t feature_dim() const override { return config_.feature_dim; }
  std::size_t num_classes() const override { return config_.num_classes; }

  Matrix Forward(const Matrix& x) override;
  Matrix Logits(const Matrix& x) const override;
  Matrix ExtractFeatures(const Matrix& x) const override;
  void Backward(const Matrix& dlogits) override;
  void ZeroGrad() override;
  std::vector<Matrix*> Parameters() override;
  std::vector<const Matrix*> Parameters() const override;
  std::vector<Matrix*> Gradients() override;
  std::unique_ptr<FeatureClassifier> CloneArchitecture(
      Rng* rng) const override;

 private:
  ConvNetConfig config_;
  std::unique_ptr<Conv2d> conv1_;
  Relu relu1_;
  std::unique_ptr<MaxPool2d> pool1_;
  std::unique_ptr<Conv2d> conv2_;
  Relu relu2_;
  std::unique_ptr<MaxPool2d> pool2_;
  std::unique_ptr<Linear> fc_;  // flattened -> feature_dim
  Relu relu3_;
  std::unique_ptr<Linear> head_;
  // The inputs of fc_ and head_ from the last Forward, alive until
  // Backward (Linear does not copy its input).
  Matrix fc_input_;
  Matrix head_input_;
};

}  // namespace faction

#endif  // FACTION_NN_CONV_H_
