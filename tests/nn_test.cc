#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/streams.h"
#include "gtest/gtest.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "common/workspace.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"

namespace faction {
namespace {

// ---------------------------------------------------------------- Linear

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  SpectralNormConfig no_sn;
  Linear lin(3, 2, no_sn, &rng);
  lin.bias()->Fill(0.5);
  Matrix x(4, 3, 1.0);
  const Matrix y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  // y = sum of weights per output + bias.
  const Matrix& w = *lin.weight();
  for (std::size_t j = 0; j < 2; ++j) {
    double expect = 0.5;
    for (std::size_t k = 0; k < 3; ++k) expect += w(j, k);
    EXPECT_NEAR(y(0, j), expect, 1e-12);
  }
}

TEST(LinearTest, ForwardInferenceMatchesForward) {
  Rng rng(2);
  SpectralNormConfig no_sn;
  Linear lin(5, 4, no_sn, &rng);
  Matrix x(3, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const Matrix a = lin.Forward(x);
  const Matrix b = lin.ForwardInference(x);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-12);
}

// Finite-difference gradient check for the Linear layer.
TEST(LinearTest, GradientCheck) {
  Rng rng(3);
  SpectralNormConfig no_sn;
  Linear lin(4, 3, no_sn, &rng);
  Matrix x(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  // Scalar objective: L = sum(y).
  auto loss_of = [&](Linear& layer) {
    const Matrix y = layer.ForwardInference(x);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += y.data()[i];
    return acc;
  };
  lin.ZeroGrad();
  const Matrix y = lin.Forward(x);
  Matrix dy(y.rows(), y.cols(), 1.0);
  const Matrix dx = lin.Backward(dy);

  const double eps = 1e-6;
  // Weight gradient.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const double orig = (*lin.weight())(r, c);
      (*lin.weight())(r, c) = orig + eps;
      const double up = loss_of(lin);
      (*lin.weight())(r, c) = orig - eps;
      const double down = loss_of(lin);
      (*lin.weight())(r, c) = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR((*lin.weight_grad())(r, c), numeric, 1e-4);
    }
  }
  // Bias gradient: each bias column receives batch-size contributions.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR((*lin.bias_grad())(0, c), 2.0, 1e-9);
  }
  // Input gradient.
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      double expect = 0.0;
      for (std::size_t j = 0; j < 3; ++j) expect += (*lin.weight())(j, c);
      EXPECT_NEAR(dx(r, c), expect, 1e-9);
    }
  }
}

TEST(LinearTest, SpectralNormCapsWeightScale) {
  Rng rng(4);
  SpectralNormConfig sn;
  sn.enabled = true;
  sn.coeff = 1.0;
  sn.power_iterations = 30;
  Linear lin(6, 6, sn, &rng);
  // Inflate the weights so sigma clearly exceeds the budget.
  for (std::size_t i = 0; i < lin.weight()->size(); ++i) {
    lin.weight()->data()[i] *= 10.0;
  }
  Matrix x(2, 6);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  lin.Forward(x);
  EXPECT_GT(lin.last_sigma(), 1.0);
  EXPECT_LT(lin.last_scale(), 1.0);
  EXPECT_NEAR(lin.last_scale() * lin.last_sigma(), sn.coeff, 0.05);
}

TEST(LinearTest, SpectralNormIdleBelowBudget) {
  Rng rng(5);
  SpectralNormConfig sn;
  sn.enabled = true;
  sn.coeff = 1000.0;  // budget far above any initialization
  Linear lin(4, 4, sn, &rng);
  Matrix x(1, 4, 1.0);
  lin.Forward(x);
  EXPECT_EQ(lin.last_scale(), 1.0);
}

TEST(LinearTest, ZeroGradClears) {
  Rng rng(6);
  SpectralNormConfig no_sn;
  Linear lin(2, 2, no_sn, &rng);
  Matrix x(1, 2, 1.0);
  lin.Forward(x);
  Matrix dy(1, 2, 1.0);
  lin.Backward(dy);
  EXPECT_GT(FrobeniusNorm2(*lin.weight_grad()), 0.0);
  lin.ZeroGrad();
  EXPECT_EQ(FrobeniusNorm2(*lin.weight_grad()), 0.0);
  EXPECT_EQ(FrobeniusNorm2(*lin.bias_grad()), 0.0);
}

// A null dx skips only the input-gradient GEMM: the accumulated weight
// and bias gradients must be bitwise those of a call with a dx buffer,
// spectral scale included.
TEST(LinearTest, NullDxAccumulatesSameGradientsBitwise) {
  for (const bool spectral : {false, true}) {
    SpectralNormConfig sn;
    sn.enabled = spectral;
    sn.coeff = 0.5;  // below sigma: a non-unit scale when enabled
    Rng rng_a(12), rng_b(12);
    Linear with_dx(12, 7, sn, &rng_a);
    Linear no_dx(12, 7, sn, &rng_b);
    Rng data_rng(13);
    Matrix x(9, 12), dy(9, 7);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = data_rng.Gaussian();
    }
    for (std::size_t i = 0; i < dy.size(); ++i) {
      dy.data()[i] = data_rng.Gaussian();
    }
    Matrix dx;
    for (int step = 0; step < 2; ++step) {  // gradients accumulate
      with_dx.Forward(x);
      no_dx.Forward(x);
      with_dx.BackwardInto(dy, &dx);
      no_dx.BackwardInto(dy, nullptr);
    }
    EXPECT_EQ(dx.rows(), 9u);
    EXPECT_EQ(dx.cols(), 12u);
    EXPECT_EQ(no_dx.last_scale() < 1.0, spectral);
    const Matrix& gw_a = *with_dx.weight_grad();
    const Matrix& gw_b = *no_dx.weight_grad();
    const Matrix& gb_a = *with_dx.bias_grad();
    const Matrix& gb_b = *no_dx.bias_grad();
    EXPECT_EQ(std::memcmp(gw_a.data(), gw_b.data(),
                          gw_a.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(gb_a.data(), gb_b.data(),
                          gb_a.size() * sizeof(double)), 0);
  }
}

// ------------------------------------------------------------------ ReLU

TEST(ReluTest, ForwardClamps) {
  Relu relu;
  const Matrix x = {{-1.0, 2.0}, {0.0, -3.0}};
  const Matrix y = relu.Forward(x);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 2.0);
  EXPECT_EQ(y(1, 0), 0.0);
  EXPECT_EQ(y(1, 1), 0.0);
}

TEST(ReluTest, BackwardMasks) {
  Relu relu;
  const Matrix x = {{-1.0, 2.0, 0.5}};
  relu.Forward(x);
  const Matrix dy = {{10.0, 10.0, 10.0}};
  const Matrix dx = relu.Backward(dy);
  EXPECT_EQ(dx(0, 0), 0.0);
  EXPECT_EQ(dx(0, 1), 10.0);
  EXPECT_EQ(dx(0, 2), 10.0);
}

TEST(ReluTest, InferenceMatchesForward) {
  Relu relu;
  const Matrix x = {{-2.0, 3.0}, {4.0, -5.0}};
  EXPECT_LT(MaxAbsDiff(relu.Forward(x), Relu::ForwardInference(x)), 1e-15);
}

// Edge values cycled through a matrix wide enough that every ReLU loop
// runs both a vectorized body and a scalar tail over each of them.
const double kReluEdges[] = {
    std::numeric_limits<double>::quiet_NaN(),
    0.0,
    -0.0,
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    1.5,
    -2.5,
};
constexpr std::size_t kNumReluEdges = sizeof(kReluEdges) / sizeof(double);

Matrix ReluEdgeMatrix() {
  Matrix x(3, 13);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = kReluEdges[i % kNumReluEdges];
  }
  return x;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Pins today's ReLU semantics bit for bit, so a vectorized loop can never
// change them: training maps NaN, -0.0 and every negative to +0.0 with a
// zero mask; inference keeps NaN and -0.0; backward is dy * mask.
TEST(ReluTest, EdgeValuesBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  // Per kReluEdges entry: training output, mask, inference output.
  const double train[] = {0.0, 0.0, 0.0, inf, 0.0, sub, 0.0, 1.5, 0.0};
  const double mask[] = {0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  const double infer[] = {kReluEdges[0], 0.0, -0.0, inf, 0.0,
                          sub,           0.0, 1.5,  0.0};

  Relu relu;
  const Matrix x = relu.Forward(ReluEdgeMatrix());
  const Matrix y = Relu::ForwardInference(ReluEdgeMatrix());
  // dy cycles through finite, -0.0-producing and NaN-producing gradients.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double grads[] = {2.0, -3.0, inf, nan};
  Matrix dy(x.rows(), x.cols());
  for (std::size_t i = 0; i < dy.size(); ++i) dy.data()[i] = grads[i % 4];
  const Matrix dx = relu.Backward(dy);

  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::size_t e = i % kNumReluEdges;
    EXPECT_TRUE(SameBits(x.data()[i], train[e])) << "train, edge " << e;
    EXPECT_TRUE(SameBits(y.data()[i], infer[e])) << "inference, edge " << e;
    const double g = dy.data()[i];
    if (mask[e] == 1.0) {
      EXPECT_TRUE(SameBits(dx.data()[i], g)) << "backward, edge " << e;
    } else if (std::isfinite(g)) {
      EXPECT_TRUE(SameBits(dx.data()[i], std::copysign(0.0, g)))
          << "backward, edge " << e;
    } else {
      EXPECT_TRUE(std::isnan(dx.data()[i])) << "backward, edge " << e;
    }
  }
}

// ------------------------------------------------------------------- MLP

MlpConfig SmallConfig() {
  MlpConfig config;
  config.input_dim = 5;
  config.hidden_dims = {8, 4};
  config.num_classes = 2;
  return config;
}

TEST(MlpTest, ShapesAndFeatureDim) {
  Rng rng(7);
  MlpClassifier model(SmallConfig(), &rng);
  EXPECT_EQ(model.feature_dim(), 4u);
  Matrix x(3, 5, 0.3);
  const Matrix logits = model.Forward(x);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 2u);
  const Matrix z = model.ExtractFeatures(x);
  EXPECT_EQ(z.rows(), 3u);
  EXPECT_EQ(z.cols(), 4u);
}

TEST(MlpTest, LogitsMatchForward) {
  Rng rng(8);
  MlpClassifier model(SmallConfig(), &rng);
  Matrix x(4, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const Matrix a = model.Forward(x);
  const Matrix b = model.Logits(x);
  EXPECT_LT(MaxAbsDiff(a, b), 1e-12);
}

TEST(MlpTest, PredictArgmaxOfProba) {
  Rng rng(9);
  MlpClassifier model(SmallConfig(), &rng);
  Matrix x(6, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const Matrix proba = model.PredictProba(x);
  const std::vector<int> pred = model.Predict(x);
  for (std::size_t i = 0; i < 6; ++i) {
    const int argmax = proba(i, 1) > proba(i, 0) ? 1 : 0;
    EXPECT_EQ(pred[i], argmax);
    EXPECT_NEAR(proba(i, 0) + proba(i, 1), 1.0, 1e-12);
  }
}

// End-to-end gradient check through the full MLP with cross-entropy.
TEST(MlpTest, FullGradientCheck) {
  Rng rng(10);
  MlpConfig config = SmallConfig();
  MlpClassifier model(config, &rng);
  Matrix x(3, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const std::vector<int> labels = {0, 1, 1};

  auto loss_of = [&]() {
    return SoftmaxNll(model.Logits(x), labels);
  };
  const Matrix logits = model.Forward(x);
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, labels, &dlogits);
  model.ZeroGrad();
  model.Backward(dlogits);

  const std::vector<Matrix*> params = model.Parameters();
  const std::vector<Matrix*> grads = model.Gradients();
  const double eps = 1e-6;
  for (std::size_t p = 0; p < params.size(); ++p) {
    // Spot-check a few entries of every parameter tensor.
    const std::size_t stride = std::max<std::size_t>(1, params[p]->size() / 5);
    for (std::size_t k = 0; k < params[p]->size(); k += stride) {
      const double orig = params[p]->data()[k];
      params[p]->data()[k] = orig + eps;
      const double up = loss_of();
      params[p]->data()[k] = orig - eps;
      const double down = loss_of();
      params[p]->data()[k] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->data()[k], numeric, 1e-4)
          << "param " << p << " entry " << k;
    }
  }
}

// One training step of a 2-hidden-layer MLP runs 3 forward GEMMs, 3
// weight-gradient GEMMs and 2 input-gradient GEMMs: the first layer's
// dL/dx has no reader and is never computed.
TEST(MlpTest, TrainingStepRunsEightGemms) {
  Rng rng(14);
  MlpClassifier model(SmallConfig(), &rng);
  Matrix x(6, 5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  const std::vector<int> labels = {0, 1, 1, 0, 1, 0};
  Telemetry::Enable();
  const std::uint64_t before = TelemetryCounterValue("simd.gemm_calls");
  const Matrix logits = model.Forward(x);
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, labels, &dlogits);
  model.Backward(dlogits);
  const std::uint64_t gemms = TelemetryCounterValue("simd.gemm_calls") - before;
  Telemetry::Disable();
  EXPECT_EQ(gemms, 8u);
}

// The one-trunk-pass override must equal the base class's two calls
// (ExtractFeaturesInto + PredictProbaInto) bit for bit, with and without
// hidden layers.
TEST(MlpTest, FeaturesAndProbaMatchTwoCallsBitwise) {
  MlpConfig linear = SmallConfig();
  linear.hidden_dims = {};
  for (const MlpConfig& config : {SmallConfig(), linear}) {
    Rng rng(15);
    MlpClassifier model(config, &rng);
    Matrix x(37, config.input_dim);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
    Workspace ws_one, ws_two;
    Matrix z_one, p_one, z_two, p_two;
    model.ExtractFeaturesAndProbaInto(x, &ws_one, &z_one, &p_one);
    model.FeatureClassifier::ExtractFeaturesAndProbaInto(x, &ws_two, &z_two,
                                                         &p_two);
    ASSERT_EQ(z_one.rows(), x.rows());
    ASSERT_EQ(z_one.cols(), model.feature_dim());
    ASSERT_EQ(p_one.cols(), model.num_classes());
    ASSERT_EQ(z_two.size(), z_one.size());
    ASSERT_EQ(p_two.size(), p_one.size());
    EXPECT_EQ(std::memcmp(z_one.data(), z_two.data(),
                          z_one.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(p_one.data(), p_two.data(),
                          p_one.size() * sizeof(double)),
              0);
  }
}

TEST(MlpTest, LinearModelWhenNoHidden) {
  Rng rng(11);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {};
  MlpClassifier model(config, &rng);
  EXPECT_EQ(model.feature_dim(), 4u);
  Matrix x(2, 4, 0.5);
  // Features of a linear model are the raw inputs.
  EXPECT_LT(MaxAbsDiff(model.ExtractFeatures(x), x), 1e-15);
  const Matrix logits = model.Logits(x);
  EXPECT_EQ(logits.cols(), 2u);
}

TEST(MlpTest, CopyParametersMatchesOutputs) {
  Rng rng_a(12), rng_b(13);
  MlpClassifier a(SmallConfig(), &rng_a);
  MlpClassifier b(SmallConfig(), &rng_b);
  Matrix x(2, 5, 0.7);
  EXPECT_GT(MaxAbsDiff(a.Logits(x), b.Logits(x)), 1e-6);
  b.CopyParametersFrom(a);
  EXPECT_LT(MaxAbsDiff(a.Logits(x), b.Logits(x)), 1e-12);
}

TEST(MlpTest, ParameterCount) {
  Rng rng(14);
  MlpClassifier model(SmallConfig(), &rng);
  // 5->8 (48) + 8->4 (36) + 4->2 (10) = 94.
  std::size_t count = 0;
  for (const Matrix* p : model.Parameters()) count += p->size();
  EXPECT_EQ(count, 94u);
}

TEST(MlpTest, ConstParametersMatchMutableParameters) {
  Rng rng(6);
  MlpClassifier model(SmallConfig(), &rng);
  const std::vector<Matrix*> mut = model.Parameters();
  const std::vector<const Matrix*> cons =
      static_cast<const MlpClassifier&>(model).Parameters();
  ASSERT_EQ(mut.size(), cons.size());
  for (std::size_t i = 0; i < mut.size(); ++i) {
    EXPECT_EQ(static_cast<const Matrix*>(mut[i]), cons[i]);
  }
}

// ------------------------------------------------------------------ Loss

TEST(LossTest, CrossEntropyKnownValue) {
  // Uniform logits over 2 classes: loss = log(2).
  const Matrix logits(3, 2, 0.0);
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(logits, {0, 1, 0}, &dlogits);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  // Gradient: (p - onehot)/n.
  EXPECT_NEAR(dlogits(0, 0), (0.5 - 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(dlogits(0, 1), 0.5 / 3.0, 1e-12);
}

TEST(LossTest, CrossEntropyGradientCheck) {
  Rng rng(15);
  Matrix logits(4, 3);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Gaussian();
  }
  const std::vector<int> labels = {2, 0, 1, 2};
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, labels, &dlogits);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix up = logits, down = logits;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    Matrix scratch;
    const double lu = SoftmaxCrossEntropy(up, labels, &scratch);
    const double ld = SoftmaxCrossEntropy(down, labels, &scratch);
    EXPECT_NEAR(dlogits.data()[i], (lu - ld) / (2.0 * eps), 1e-6);
  }
}

TEST(LossTest, NllMatchesCrossEntropyValue) {
  Rng rng(16);
  Matrix logits(5, 2);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Gaussian();
  }
  const std::vector<int> labels = {0, 1, 1, 0, 1};
  Matrix dlogits;
  EXPECT_NEAR(SoftmaxCrossEntropy(logits, labels, &dlogits),
              SoftmaxNll(logits, labels), 1e-12);
}

TEST(LossTest, FairnessPenaltyZeroWhenBalanced) {
  // Identical score distribution across groups => v = 0 => no penalty.
  const Matrix logits = {{1.0, -1.0}, {1.0, -1.0}, {-1.0, 1.0}, {-1.0, 1.0}};
  const std::vector<int> labels = {0, 0, 1, 1};
  const std::vector<int> sensitive = {1, -1, 1, -1};
  Matrix dlogits(4, 2, 0.0);
  FairnessPenaltyConfig config;
  config.epsilon = 0.0;
  const Result<double> pen = AddFairnessPenalty(
      SoftmaxRows(logits), labels, sensitive, config, &dlogits);
  ASSERT_TRUE(pen.ok()) << pen.status().ToString();
  EXPECT_NEAR(pen.value(), 0.0, 1e-9);
  EXPECT_NEAR(FrobeniusNorm2(dlogits), 0.0, 1e-12);
}

TEST(LossTest, FairnessPenaltyPositiveWhenGroupFavored) {
  // Group +1 receives confident class-1 scores; group -1 class-0.
  const Matrix logits = {{-3.0, 3.0}, {-3.0, 3.0}, {3.0, -3.0}, {3.0, -3.0}};
  const std::vector<int> labels = {1, 1, 0, 0};
  const std::vector<int> sensitive = {1, 1, -1, -1};
  Matrix dlogits(4, 2, 0.0);
  FairnessPenaltyConfig config;
  config.mu = 1.0;
  config.epsilon = 0.0;
  const Result<double> pen = AddFairnessPenalty(
      SoftmaxRows(logits), labels, sensitive, config, &dlogits);
  ASSERT_TRUE(pen.ok());
  EXPECT_GT(pen.value(), 0.5);
  EXPECT_GT(FrobeniusNorm2(dlogits), 0.0);
}

TEST(LossTest, FairnessPenaltyGradientCheck) {
  Rng rng(17);
  Matrix logits(6, 2);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] = rng.Gaussian();
  }
  const std::vector<int> labels = {0, 1, 0, 1, 1, 0};
  const std::vector<int> sensitive = {1, 1, -1, -1, 1, -1};
  FairnessPenaltyConfig config;
  config.mu = 0.8;
  config.epsilon = 0.0;

  auto penalty_of = [&](const Matrix& l) {
    Matrix scratch(l.rows(), l.cols(), 0.0);
    const Result<double> pen = AddFairnessPenalty(
        SoftmaxRows(l), labels, sensitive, config, &scratch);
    return pen.value_or(0.0);
  };
  Matrix dlogits(6, 2, 0.0);
  const Result<double> pen = AddFairnessPenalty(
      SoftmaxRows(logits), labels, sensitive, config, &dlogits);
  ASSERT_TRUE(pen.ok());
  // Skip the check if the penalty sits exactly at the hinge kink.
  if (std::fabs(penalty_of(logits)) > 1e-6) {
    const double eps = 1e-6;
    for (std::size_t i = 0; i < logits.size(); ++i) {
      Matrix up = logits, down = logits;
      up.data()[i] += eps;
      down.data()[i] -= eps;
      EXPECT_NEAR(dlogits.data()[i],
                  (penalty_of(up) - penalty_of(down)) / (2.0 * eps), 1e-5);
    }
  }
}

TEST(LossTest, FairnessPenaltyRequiresBinary) {
  const Matrix logits(2, 3, 0.0);
  Matrix dlogits(2, 3, 0.0);
  FairnessPenaltyConfig config;
  const Result<double> pen = AddFairnessPenalty(
      SoftmaxRows(logits), {0, 1}, {1, -1}, config, &dlogits);
  EXPECT_FALSE(pen.ok());
}

TEST(LossTest, FairnessPenaltySingleGroupFails) {
  const Matrix logits(2, 2, 0.0);
  Matrix dlogits(2, 2, 0.0);
  FairnessPenaltyConfig config;
  const Result<double> pen = AddFairnessPenalty(
      SoftmaxRows(logits), {0, 1}, {1, 1}, config, &dlogits);
  EXPECT_FALSE(pen.ok());
}

TEST(LossTest, LiteralPenaltyIgnoresNegativeV) {
  // Disparity favoring group -1 gives v < 0: the literal [v]_+ form stays
  // inactive while the symmetric form penalizes.
  const Matrix logits = {{3.0, -3.0}, {3.0, -3.0}, {-3.0, 3.0}, {-3.0, 3.0}};
  const std::vector<int> labels = {0, 0, 1, 1};
  const std::vector<int> sensitive = {1, 1, -1, -1};  // group -1 favored
  FairnessPenaltyConfig literal;
  literal.symmetric = false;
  literal.epsilon = 0.0;
  Matrix d1(4, 2, 0.0);
  const Result<double> p_lit = AddFairnessPenalty(
      SoftmaxRows(logits), labels, sensitive, literal, &d1);
  ASSERT_TRUE(p_lit.ok());
  EXPECT_NEAR(p_lit.value(), 0.0, 1e-9);

  FairnessPenaltyConfig symmetric;
  symmetric.symmetric = true;
  symmetric.epsilon = 0.0;
  Matrix d2(4, 2, 0.0);
  const Result<double> p_sym = AddFairnessPenalty(
      SoftmaxRows(logits), labels, sensitive, symmetric, &d2);
  ASSERT_TRUE(p_sym.ok());
  EXPECT_GT(p_sym.value(), 0.1);
}

// ------------------------------------------------------------- Optimizer

TEST(OptimizerTest, SgdPlainStep) {
  Matrix p = {{1.0, 2.0}};
  Matrix g = {{0.5, -0.5}};
  SgdOptimizer opt(0.1);
  opt.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), 0.95, 1e-12);
  EXPECT_NEAR(p(0, 1), 2.05, 1e-12);
}

TEST(OptimizerTest, SgdMomentumAccumulates) {
  Matrix p = {{0.0}};
  Matrix g = {{1.0}};
  SgdOptimizer opt(1.0, 0.9);
  opt.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), -1.0, 1e-12);  // v = 1
  opt.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), -2.9, 1e-12);  // v = 1.9
}

TEST(OptimizerTest, SgdWeightDecayShrinks) {
  Matrix p = {{10.0}};
  Matrix g = {{0.0}};
  SgdOptimizer opt(0.1, 0.0, 0.5);
  opt.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), 10.0 * (1.0 - 0.05), 1e-12);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Matrix p = {{-5.0}};
  SgdOptimizer opt(0.1, 0.9);
  for (int i = 0; i < 400; ++i) {
    Matrix g = {{2.0 * (p(0, 0) - 3.0)}};
    opt.Step({&p}, {&g});
  }
  EXPECT_NEAR(p(0, 0), 3.0, 1e-4);
}

// --------------------------------------------------------------- Trainer

Dataset TrainerPool(std::size_t n, std::uint64_t seed) {
  StationaryConfig config;
  config.scale.samples_per_task = n;
  config.scale.seed = seed;
  config.dim = 8;
  config.num_tasks = 1;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  EXPECT_TRUE(stream.ok());
  return std::move(stream.value()[0]);
}

TEST(TrainerTest, LossDecreases) {
  const Dataset pool = TrainerPool(300, 31);
  Rng rng(18);
  MlpConfig mconfig;
  mconfig.input_dim = 8;
  mconfig.hidden_dims = {16, 8};
  MlpClassifier model(mconfig, &rng);
  const double before = SoftmaxNll(model.Logits(pool.features()),
                                   pool.labels());
  TrainConfig tconfig;
  tconfig.epochs = 10;
  Rng train_rng(19);
  const Result<TrainReport> report =
      TrainClassifier(&model, pool, tconfig, &train_rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const double after =
      SoftmaxNll(model.Logits(pool.features()), pool.labels());
  EXPECT_LT(after, before * 0.8);
  EXPECT_GT(report.value().steps, 0);
}

TEST(TrainerTest, FairnessPenaltyReducesDisparity) {
  const Dataset pool = TrainerPool(600, 33);
  TrainConfig plain;
  plain.epochs = 12;
  TrainConfig fair = plain;
  fair.use_fairness_penalty = true;
  fair.fairness.mu = 2.0;
  fair.fairness.epsilon = 0.0;

  auto disparity_of = [&](const TrainConfig& config, std::uint64_t seed) {
    Rng rng(seed);
    MlpConfig mconfig;
    mconfig.input_dim = 8;
    mconfig.hidden_dims = {16, 8};
    MlpClassifier model(mconfig, &rng);
    Rng train_rng(seed + 1);
    const Result<TrainReport> report =
        TrainClassifier(&model, pool, config, &train_rng);
    EXPECT_TRUE(report.ok());
    const Matrix proba = model.PredictProba(pool.features());
    std::vector<double> scores(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) scores[i] = proba(i, 1);
    const Result<double> v = RelaxedFairness(
        FairnessNotion::kDdp, scores, pool.sensitive(), pool.labels());
    EXPECT_TRUE(v.ok());
    return std::fabs(v.value_or(0.0));
  };
  const double plain_v = disparity_of(plain, 100);
  const double fair_v = disparity_of(fair, 100);
  EXPECT_LT(fair_v, plain_v * 0.7)
      << "plain=" << plain_v << " fair=" << fair_v;
}

TEST(TrainerTest, RejectsEmptyDataset) {
  Rng rng(20);
  MlpConfig mconfig;
  mconfig.input_dim = 8;
  MlpClassifier model(mconfig, &rng);
  Dataset empty(8);
  TrainConfig tconfig;
  EXPECT_FALSE(TrainClassifier(&model, empty, tconfig, &rng).ok());
}

TEST(TrainerTest, RejectsDimensionMismatch) {
  const Dataset pool = TrainerPool(50, 35);
  Rng rng(21);
  MlpConfig mconfig;
  mconfig.input_dim = 12;  // pool is 8-dimensional
  MlpClassifier model(mconfig, &rng);
  TrainConfig tconfig;
  EXPECT_FALSE(TrainClassifier(&model, pool, tconfig, &rng).ok());
}

TEST(TrainerTest, RejectsBadHyperparameters) {
  const Dataset pool = TrainerPool(50, 37);
  Rng rng(22);
  MlpConfig mconfig;
  mconfig.input_dim = 8;
  MlpClassifier model(mconfig, &rng);
  TrainConfig tconfig;
  tconfig.epochs = 0;
  EXPECT_FALSE(TrainClassifier(&model, pool, tconfig, &rng).ok());
  tconfig.epochs = 1;
  tconfig.batch_size = 0;
  EXPECT_FALSE(TrainClassifier(&model, pool, tconfig, &rng).ok());
}

// A legal but divergent learning rate must come back as a Status with the
// weights of entry, bitwise, not abort a DCHECK build in the loss or train
// a release build to non-finite weights. Meaningful in trees built with
// FACTION_FORCE_DCHECKS (the asan preset), where the finite-loss and
// spectral-norm DCHECKs are live. Covers the plain MLP, whose logits blow
// up, and the spectral-normalized one, whose bounded effective weight
// keeps the logits small while the raw weights overflow; 1e150 leaves
// astronomically large but finite values along the way.
TEST(TrainerTest, DivergenceRestoresEntryWeights) {
  const Dataset pool = TrainerPool(120, 39);
  struct Case {
    double learning_rate;
    bool spectral;
  };
  for (const Case c : {Case{1e300, false}, Case{1e300, true},
                       Case{1e150, false}, Case{1e150, true}}) {
    SCOPED_TRACE(testing::Message() << "learning rate " << c.learning_rate
                                    << ", spectral " << c.spectral);
    Rng rng(23);
    MlpConfig mconfig;
    mconfig.input_dim = 8;
    mconfig.hidden_dims = {16, 8};
    mconfig.spectral.enabled = c.spectral;
    MlpClassifier model(mconfig, &rng);
    std::vector<std::vector<double>> before;
    for (const Matrix* p : model.Parameters()) {
      before.emplace_back(p->data(), p->data() + p->size());
    }
    TrainConfig tconfig;
    tconfig.learning_rate = c.learning_rate;
    Workspace workspace;
    Rng train_rng(24);
    const Result<TrainReport> report =
        TrainClassifier(&model, pool, tconfig, &train_rng, &workspace);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(StatusCode::kNumericalError, report.status().code());
    const std::vector<const Matrix*> after =
        static_cast<const MlpClassifier&>(model).Parameters();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
      ASSERT_EQ(before[i].size(), after[i]->size());
      for (std::size_t j = 0; j < before[i].size(); ++j) {
        EXPECT_TRUE(SameBits(before[i][j], after[i]->data()[j]))
            << "parameter " << i << "[" << j << "]";
      }
    }
  }
}

// Finite logits can still overflow the loss: +-1e308 put the two classes
// 2e308 apart, and the log-sum-exp of the lower one is -infinity. The
// range check on the logits must catch them before the loss reads them,
// at the first step, and return a Status with the weights untouched.
TEST(TrainerTest, LogitsBeyondLossRangeReturnStatus) {
  Dataset pool(2);
  for (int i = 0; i < 16; ++i) {
    Example ex;
    ex.x = {1e308, 0.0};
    ex.label = i % 2;
    ex.sensitive = i % 4 < 2 ? 1 : -1;
    ASSERT_TRUE(pool.Append(ex).ok());
  }
  Rng rng(25);
  MlpConfig mconfig;
  mconfig.input_dim = 2;
  mconfig.hidden_dims = {};  // logits = x W^T + b
  MlpClassifier model(mconfig, &rng);
  const std::vector<Matrix*> params = model.Parameters();
  for (Matrix* p : params) p->Fill(0.0);
  (*params[0])(0, 0) = 1.0;
  (*params[0])(1, 0) = -1.0;
  std::vector<double> before;
  for (const Matrix* p : params) {
    before.insert(before.end(), p->data(), p->data() + p->size());
  }
  Rng train_rng(26);
  const Result<TrainReport> report =
      TrainClassifier(&model, pool, TrainConfig(), &train_rng);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(StatusCode::kNumericalError, report.status().code());
  std::size_t k = 0;
  for (const Matrix* p : params) {
    for (std::size_t j = 0; j < p->size(); ++j, ++k) {
      EXPECT_TRUE(SameBits(before[k], p->data()[j])) << "weight " << k;
    }
  }
  EXPECT_EQ(before.size(), k);
}

// ------------------------------------------------------ fused loss parity

// Bit for bit against the two-pass reference at 2, 3, 5 and 9 classes.
// Besides Gaussian rows, every width gets rows whose maximum is tied:
// all-equal logits, +0.0 against -0.0 in both orders, all -0.0, and a
// repeated maximum among smaller entries, where the fused loss takes 1.0
// for exp(r[j] - mx).
TEST(LossTest, FusedMatchesTwoPassBitwise) {
  for (const std::size_t c : {2u, 3u, 5u, 9u}) {
    SCOPED_TRACE(c);
    Rng rng(901 + c);
    const std::size_t n = 37;
    Matrix logits(n, c);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<int>(i % c);
      for (std::size_t j = 0; j < c; ++j) logits(i, j) = 3.0 * rng.Gaussian();
    }
    for (std::size_t j = 0; j < c; ++j) {
      logits(0, j) = 0.75;                       // all logits equal
      logits(1, j) = j % 2 == 0 ? 0.0 : -0.0;    // +0 then -0
      logits(2, j) = j % 2 == 0 ? -0.0 : 0.0;    // -0 then +0
      logits(3, j) = -0.0;                       // all -0
      logits(4, j) = j + 2 >= c ? 1.5 : -2.0;    // maximum repeated last
      logits(5, j) = j < 2 ? -1.25 : -7.0;       // maximum repeated first
    }
    Matrix d_ref, d_fused;
    const double ref = SoftmaxCrossEntropy(logits, labels, &d_ref);
    const double fused = FusedSoftmaxCrossEntropy(logits, labels, &d_fused);
    EXPECT_TRUE(SameBits(ref, fused));
    ASSERT_EQ(d_ref.rows(), d_fused.rows());
    ASSERT_EQ(d_ref.cols(), d_fused.cols());
    EXPECT_EQ(std::memcmp(d_ref.data(), d_fused.data(),
                          d_ref.size() * sizeof(double)),
              0);
  }
}

// The softmax the fused loss hands to the fairness penalty is bitwise
// SoftmaxRowsInto's, and handing it out changes neither loss nor gradient.
TEST(LossTest, HandedOffSoftmaxMatchesSoftmaxRowsBitwise) {
  for (const std::size_t c : {2u, 3u, 5u}) {
    SCOPED_TRACE(c);
    Rng rng(911 + c);
    const std::size_t n = 67;
    Matrix logits(n, c);
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = static_cast<int>(i % c);
      for (std::size_t j = 0; j < c; ++j) logits(i, j) = 4.0 * rng.Gaussian();
    }
    for (std::size_t j = 0; j < c; ++j) {
      logits(0, j) = j % 2 == 0 ? 0.0 : -0.0;
      logits(1, j) = j + 1 == c ? 2.5 : -30.0;
      logits(2, j) = 700.0 - static_cast<double>(j);
    }
    Matrix d_plain, d_handed, proba;
    const double plain = FusedSoftmaxCrossEntropy(logits, labels, &d_plain);
    const double handed =
        FusedSoftmaxCrossEntropy(logits, labels, &d_handed, &proba);
    EXPECT_TRUE(SameBits(plain, handed));
    ASSERT_EQ(d_plain.size(), d_handed.size());
    EXPECT_EQ(std::memcmp(d_plain.data(), d_handed.data(),
                          d_plain.size() * sizeof(double)),
              0);
    const Matrix want = SoftmaxRows(logits);
    ASSERT_EQ(want.rows(), proba.rows());
    ASSERT_EQ(want.cols(), proba.cols());
    EXPECT_EQ(std::memcmp(want.data(), proba.data(),
                          want.size() * sizeof(double)),
              0);
  }
}

// ------------------------------------------------- workspace-reuse trainer

// Deterministic synthetic binary dataset with both sensitive groups.
Dataset TrainerDataset(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(dim);
  for (std::size_t i = 0; i < n; ++i) {
    Example e;
    e.x.resize(dim);
    e.label = static_cast<int>(i % 2);
    e.sensitive = i % 3 == 0 ? -1 : 1;
    for (std::size_t j = 0; j < dim; ++j) {
      e.x[j] = rng.Gaussian() + (e.label == 1 ? 1.0 : -1.0);
    }
    EXPECT_TRUE(data.Append(e).ok());
  }
  return data;
}

TEST(TrainerTest, SharedWorkspaceDoesNotChangeResults) {
  const Dataset data = TrainerDataset(90, 5, 31);
  MlpConfig mconfig;
  mconfig.input_dim = 5;
  mconfig.hidden_dims = {8};
  TrainConfig tconfig;
  tconfig.epochs = 3;
  tconfig.batch_size = 16;

  auto run = [&](Workspace* ws) {
    Rng model_rng(7);
    MlpClassifier model(mconfig, &model_rng);
    Rng train_rng(9);
    const Result<TrainReport> report =
        TrainClassifier(&model, data, tconfig, &train_rng, ws);
    EXPECT_TRUE(report.ok());
    std::vector<Matrix> params;
    for (Matrix* p : model.Parameters()) params.push_back(*p);
    return params;
  };

  const std::vector<Matrix> fresh = run(nullptr);
  Workspace shared;
  // Dirty the arena with a different training run first: reuse must not
  // leak state between calls.
  const Dataset other = TrainerDataset(40, 5, 77);
  {
    Rng model_rng(3);
    MlpClassifier model(mconfig, &model_rng);
    Rng train_rng(4);
    ASSERT_TRUE(
        TrainClassifier(&model, other, tconfig, &train_rng, &shared).ok());
  }
  const std::vector<Matrix> reused = run(&shared);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(fresh[i], reused[i]), 0.0) << "parameter " << i;
  }
  EXPECT_GT(shared.buffer_count(), 0u);
}

TEST(TrainerTest, RepeatedSharedWorkspaceRunsAreIdentical) {
  const Dataset data = TrainerDataset(60, 4, 13);
  MlpConfig mconfig;
  mconfig.input_dim = 4;
  mconfig.hidden_dims = {6};
  TrainConfig tconfig;
  tconfig.epochs = 2;
  tconfig.batch_size = 8;
  Workspace shared;
  auto run = [&]() {
    Rng model_rng(21);
    MlpClassifier model(mconfig, &model_rng);
    Rng train_rng(22);
    EXPECT_TRUE(
        TrainClassifier(&model, data, tconfig, &train_rng, &shared).ok());
    std::vector<Matrix> params;
    for (Matrix* p : model.Parameters()) params.push_back(*p);
    return params;
  };
  const std::vector<Matrix> first = run();
  const std::vector<Matrix> second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(first[i], second[i]), 0.0) << "parameter " << i;
  }
}

}  // namespace
}  // namespace faction
