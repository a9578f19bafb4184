#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"

namespace faction {

namespace {

constexpr std::size_t kPad = 1;  // same padding for the 3x3 kernel

// Samples per parallel chunk. Forward work is sample-disjoint so grain 1
// would be fine; the backward pass keeps one weight/bias partial and one
// im2col scratch per chunk, so a larger grain bounds that scratch memory.
// The chunk layout (and therefore the gradient accumulation order) depends
// only on this constant, never on the thread count.
constexpr std::size_t kSampleGrain = 4;

}  // namespace

Conv2d::Conv2d(const ImageShape& in, std::size_t out_channels, Rng* rng)
    : in_(in),
      out_channels_(out_channels),
      w_(out_channels, in.channels * kKernel * kKernel),
      b_(1, out_channels),
      gw_(out_channels, in.channels * kKernel * kKernel),
      gb_(1, out_channels) {
  const double std =
      std::sqrt(2.0 / static_cast<double>(w_.cols()));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = rng->Gaussian(0.0, std);
  }
}

ConvGeometry Conv2d::Geometry() const {
  ConvGeometry g;
  g.in_channels = in_.channels;
  g.height = in_.height;
  g.width = in_.width;
  g.kernel = kKernel;
  g.stride = 1;
  g.pad = kPad;
  return g;
}

void Conv2d::EnsureScratch(std::size_t nchunks) const {
  if (scratch_.size() < nchunks) scratch_.resize(nchunks);
}

Matrix Conv2d::Apply(const Matrix& x) const {
  FACTION_CHECK_EQ(x.cols(), in_.Flat());
  const std::size_t n = x.rows();
  const ConvGeometry g = Geometry();
  Matrix out(n, out_channels_ * g.OutPositions());
  // One sample is fully convolved by one chunk; output rows are disjoint
  // and each chunk owns its im2col scratch, so the result is bitwise
  // identical for any thread count. The scratch pool persists across
  // calls (steady-state minibatches allocate nothing), which also means a
  // Conv2d must not be driven from two threads at once — consistent with
  // Forward() caching the input.
  const std::size_t nchunks = ParallelChunkCount(0, n, kSampleGrain);
  EnsureScratch(nchunks);
  ParallelForChunks(
      0, n, kSampleGrain,
      [&](std::size_t chunk, std::size_t s0, std::size_t s1) {
        ConvScratch* scratch = &scratch_[chunk];
        for (std::size_t s = s0; s < s1; ++s) {
          GemmConvForward(g, out_channels_, x.row_data(s), w_.data(),
                          b_.row_data(0), out.row_data(s), scratch);
        }
      });
  return out;
}

Matrix Conv2d::ApplyNaive(const Matrix& x) const {
  FACTION_CHECK_EQ(x.cols(), in_.Flat());
  const ConvGeometry g = Geometry();
  Matrix out(x.rows(), out_channels_ * g.OutPositions());
  for (std::size_t s = 0; s < x.rows(); ++s) {
    NaiveConvForward(g, out_channels_, x.row_data(s), w_.data(),
                     b_.row_data(0), out.row_data(s));
  }
  return out;
}

Matrix Conv2d::Forward(const Matrix& x) {
  cached_input_ = x;
  return Apply(x);
}

Matrix Conv2d::ForwardInference(const Matrix& x) const { return Apply(x); }

Matrix Conv2d::Backward(const Matrix& dy) {
  const std::size_t n = cached_input_.rows();
  const ConvGeometry g = Geometry();
  FACTION_CHECK_EQ(dy.rows(), n);
  FACTION_CHECK_EQ(dy.cols(), out_channels_ * g.OutPositions());
  Matrix dx(n, in_.Flat());
  // dx rows are sample-disjoint, but the weight/bias gradients are shared
  // across samples. Each chunk therefore accumulates into its own partial
  // buffers (persistent members, zeroed per call), combined below in chunk
  // order. The chunk layout depends only on kSampleGrain, so the
  // accumulation order — and the result — is bitwise identical for any
  // thread count.
  const std::size_t nchunks = ParallelChunkCount(0, n, kSampleGrain);
  EnsureScratch(nchunks);
  gw_partial_.Resize(nchunks, w_.size());
  gb_partial_.Resize(nchunks, out_channels_);
  ParallelForChunks(
      0, n, kSampleGrain,
      [&](std::size_t chunk, std::size_t s0, std::size_t s1) {
        double* gw_chunk = gw_partial_.row_data(chunk);
        double* gb_chunk = gb_partial_.row_data(chunk);
        ConvScratch* scratch = &scratch_[chunk];
        for (std::size_t s = s0; s < s1; ++s) {
          GemmConvBackward(g, out_channels_, cached_input_.row_data(s),
                           w_.data(), dy.row_data(s), dx.row_data(s),
                           gw_chunk, gb_chunk, scratch);
        }
      });
  for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
    const double* pw = gw_partial_.row_data(chunk);
    double* gw = gw_.data();
    for (std::size_t i = 0; i < w_.size(); ++i) gw[i] += pw[i];
    const double* pb = gb_partial_.row_data(chunk);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) gb_(0, oc) += pb[oc];
  }
  return dx;
}

void Conv2d::ZeroGrad() {
  gw_.Fill(0.0);
  gb_.Fill(0.0);
}

MaxPool2d::MaxPool2d(const ImageShape& in) : in_(in) {
  FACTION_CHECK(in.height % 2 == 0 && in.width % 2 == 0);
}

Matrix MaxPool2d::Apply(const Matrix& x,
                        std::vector<std::size_t>* argmax) const {
  FACTION_CHECK(x.cols() == in_.Flat());
  const std::size_t n = x.rows();
  const std::size_t oh = in_.height / 2;
  const std::size_t ow = in_.width / 2;
  Matrix out(n, in_.channels * oh * ow);
  if (argmax != nullptr) argmax->assign(n * out.cols(), 0);
  for (std::size_t s = 0; s < n; ++s) {
    const double* img = x.row_data(s);
    double* dst = out.row_data(s);
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const double* plane = img + ch * in_.height * in_.width;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dr = 0; dr < 2; ++dr) {
            for (std::size_t dc = 0; dc < 2; ++dc) {
              const std::size_t idx =
                  (2 * r + dr) * in_.width + (2 * c + dc);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = ch * oh * ow + r * ow + c;
          dst[out_idx] = best;
          if (argmax != nullptr) {
            (*argmax)[s * out.cols() + out_idx] =
                ch * in_.height * in_.width + best_idx;
          }
        }
      }
    }
  }
  return out;
}

Matrix MaxPool2d::Forward(const Matrix& x) {
  cached_rows_ = x.rows();
  return Apply(x, &cached_argmax_);
}

Matrix MaxPool2d::ForwardInference(const Matrix& x) const {
  return Apply(x, nullptr);
}

Matrix MaxPool2d::Backward(const Matrix& dy) const {
  FACTION_CHECK(dy.rows() == cached_rows_);
  Matrix dx(dy.rows(), in_.Flat());
  for (std::size_t s = 0; s < dy.rows(); ++s) {
    const double* grad = dy.row_data(s);
    double* dst = dx.row_data(s);
    for (std::size_t j = 0; j < dy.cols(); ++j) {
      dst[cached_argmax_[s * dy.cols() + j]] += grad[j];
    }
  }
  return dx;
}

ConvNetClassifier::ConvNetClassifier(const ConvNetConfig& config, Rng* rng)
    : config_(config) {
  FACTION_CHECK(config_.input.height % 4 == 0 &&
                config_.input.width % 4 == 0);
  conv1_ = std::make_unique<Conv2d>(config_.input, config_.conv1_filters,
                                    rng);
  pool1_ = std::make_unique<MaxPool2d>(conv1_->output_shape());
  conv2_ = std::make_unique<Conv2d>(pool1_->output_shape(),
                                    config_.conv2_filters, rng);
  pool2_ = std::make_unique<MaxPool2d>(conv2_->output_shape());
  const std::size_t flat = pool2_->output_shape().Flat();
  fc_ = std::make_unique<Linear>(flat, config_.feature_dim,
                                 config_.spectral, rng);
  SpectralNormConfig no_sn;
  head_ = std::make_unique<Linear>(config_.feature_dim,
                                   config_.num_classes, no_sn, rng);
}

Matrix ConvNetClassifier::Forward(const Matrix& x) {
  Matrix h = relu1_.Forward(conv1_->Forward(x));
  h = pool1_->Forward(h);
  h = relu2_.Forward(conv2_->Forward(h));
  // The Linear layers keep pointers to their inputs for Backward.
  fc_input_ = pool2_->Forward(h);
  head_input_ = relu3_.Forward(fc_->Forward(fc_input_));
  return head_->Forward(head_input_);
}

Matrix ConvNetClassifier::Logits(const Matrix& x) const {
  Matrix h = Relu::ForwardInference(conv1_->ForwardInference(x));
  h = pool1_->ForwardInference(h);
  h = Relu::ForwardInference(conv2_->ForwardInference(h));
  h = pool2_->ForwardInference(h);
  h = Relu::ForwardInference(fc_->ForwardInference(h));
  return head_->ForwardInference(h);
}

Matrix ConvNetClassifier::ExtractFeatures(const Matrix& x) const {
  Matrix h = Relu::ForwardInference(conv1_->ForwardInference(x));
  h = pool1_->ForwardInference(h);
  h = Relu::ForwardInference(conv2_->ForwardInference(h));
  h = pool2_->ForwardInference(h);
  return Relu::ForwardInference(fc_->ForwardInference(h));
}

void ConvNetClassifier::Backward(const Matrix& dlogits) {
  Matrix d = head_->Backward(dlogits);
  d = relu3_.Backward(d);
  d = fc_->Backward(d);
  d = pool2_->Backward(d);
  d = relu2_.Backward(d);
  d = conv2_->Backward(d);
  d = pool1_->Backward(d);
  d = relu1_.Backward(d);
  conv1_->Backward(d);
}

void ConvNetClassifier::ZeroGrad() {
  conv1_->ZeroGrad();
  conv2_->ZeroGrad();
  fc_->ZeroGrad();
  head_->ZeroGrad();
}

std::vector<Matrix*> ConvNetClassifier::Parameters() {
  return {conv1_->weight(), conv1_->bias(), conv2_->weight(),
          conv2_->bias(),   fc_->weight(),  fc_->bias(),
          head_->weight(),  head_->bias()};
}

std::vector<const Matrix*> ConvNetClassifier::Parameters() const {
  const Conv2d& c1 = *conv1_;
  const Conv2d& c2 = *conv2_;
  const Linear& fc = *fc_;
  const Linear& head = *head_;
  return {&c1.weight(), &c1.bias(), &c2.weight(), &c2.bias(),
          &fc.weight(), &fc.bias(), &head.weight(), &head.bias()};
}

std::vector<Matrix*> ConvNetClassifier::Gradients() {
  return {conv1_->weight_grad(), conv1_->bias_grad(),
          conv2_->weight_grad(), conv2_->bias_grad(),
          fc_->weight_grad(),    fc_->bias_grad(),
          head_->weight_grad(),  head_->bias_grad()};
}

std::unique_ptr<FeatureClassifier> ConvNetClassifier::CloneArchitecture(
    Rng* rng) const {
  return std::make_unique<ConvNetClassifier>(config_, rng);
}

}  // namespace faction
