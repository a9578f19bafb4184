#include <cmath>
#include <set>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/streams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace faction {
namespace {

Example MakeExample(std::vector<double> x, int s, int y, int env = 0) {
  Example e;
  e.x = std::move(x);
  e.sensitive = s;
  e.label = y;
  e.environment = env;
  return e;
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, AppendAndAccess) {
  Dataset d(2);
  ASSERT_TRUE(d.Append(MakeExample({1.0, 2.0}, 1, 0, 5)).ok());
  ASSERT_TRUE(d.Append(MakeExample({3.0, 4.0}, -1, 1, 6)).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_EQ(d.features()(1, 0), 3.0);
  EXPECT_EQ(d.labels()[1], 1);
  EXPECT_EQ(d.sensitive()[0], 1);
  EXPECT_EQ(d.environments()[1], 6);
  const Example e = d.Get(0);
  EXPECT_EQ(e.x, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(e.environment, 5);
}

TEST(DatasetTest, FeaturesCompactAfterManyAppends) {
  Dataset d(3);
  for (int i = 0; i < 37; ++i) {
    ASSERT_TRUE(
        d.Append(MakeExample({double(i), 0.0, 1.0}, 1, i % 2)).ok());
  }
  // The feature matrix must be exactly n x d even though storage doubles.
  EXPECT_EQ(d.features().rows(), 37u);
  EXPECT_EQ(d.features().cols(), 3u);
  EXPECT_EQ(d.features()(36, 0), 36.0);
}

TEST(DatasetTest, ValidationErrors) {
  Dataset d(2);
  EXPECT_FALSE(d.Append(MakeExample({1.0}, 1, 0)).ok());         // bad dim
  EXPECT_FALSE(d.Append(MakeExample({1.0, 2.0}, 0, 0)).ok());    // bad s
  EXPECT_FALSE(d.Append(MakeExample({1.0, 2.0}, 1, 2)).ok());    // bad y
  EXPECT_TRUE(d.Append(MakeExample({1.0, 2.0}, -1, 1)).ok());
}

TEST(DatasetTest, InfersDimensionFromFirstAppend) {
  Dataset d;
  ASSERT_TRUE(d.Append(MakeExample({1.0, 2.0, 3.0}, 1, 0)).ok());
  EXPECT_EQ(d.dim(), 3u);
  EXPECT_FALSE(d.Append(MakeExample({1.0}, 1, 0)).ok());
}

TEST(DatasetTest, SubsetPreservesOrder) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(d.Append(MakeExample({double(i)}, 1, 0)).ok());
  }
  const Dataset sub = d.Subset({7, 2, 9});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.features()(0, 0), 7.0);
  EXPECT_EQ(sub.features()(1, 0), 2.0);
  EXPECT_EQ(sub.features()(2, 0), 9.0);
}

TEST(DatasetTest, GroupAndPositiveFractions) {
  Dataset d(1);
  ASSERT_TRUE(d.Append(MakeExample({0.0}, 1, 1)).ok());
  ASSERT_TRUE(d.Append(MakeExample({0.0}, 1, 0)).ok());
  ASSERT_TRUE(d.Append(MakeExample({0.0}, -1, 1)).ok());
  ASSERT_TRUE(d.Append(MakeExample({0.0}, -1, 1)).ok());
  EXPECT_NEAR(d.GroupFraction(), 0.5, 1e-12);
  EXPECT_NEAR(d.PositiveFraction(), 0.75, 1e-12);
}

TEST(DatasetTest, EmptyDatasetDefaults) {
  Dataset d(4);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.GroupFraction(), 0.0);
  EXPECT_EQ(d.PositiveFraction(), 0.0);
}

// ------------------------------------------------------------- Synthetic

TEST(SyntheticTest, BiasRealizedInSamples) {
  EnvironmentSpec env;
  env.class0_mean.assign(4, 0.0);
  env.class1_mean.assign(4, 1.0);
  env.bias = 0.8;
  Rng rng(1);
  std::size_t pos_given_1 = 0, n1 = 0;
  for (int i = 0; i < 20000; ++i) {
    const Example e = SampleFromEnvironment(env, 0, &rng);
    if (e.label == 1) {
      ++n1;
      if (e.sensitive == 1) ++pos_given_1;
    }
  }
  EXPECT_NEAR(static_cast<double>(pos_given_1) / n1, 0.8, 0.02);
}

TEST(SyntheticTest, PositiveFractionControlled) {
  EnvironmentSpec env;
  env.class0_mean.assign(2, 0.0);
  env.class1_mean.assign(2, 1.0);
  env.positive_fraction = 0.3;
  Rng rng(2);
  std::size_t pos = 0;
  for (int i = 0; i < 20000; ++i) {
    pos += SampleFromEnvironment(env, 0, &rng).label;
  }
  EXPECT_NEAR(pos / 20000.0, 0.3, 0.02);
}

TEST(SyntheticTest, SensitiveChannelEncodesGroup) {
  EnvironmentSpec env;
  env.class0_mean.assign(3, 0.0);
  env.class1_mean.assign(3, 0.0);
  env.sensitive_channel = 2;
  env.channel_noise = 0.0;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Example e = SampleFromEnvironment(env, 0, &rng);
    EXPECT_EQ(e.x[2], static_cast<double>(e.sensitive));
  }
}

TEST(SyntheticTest, GroupOffsetShiftsFeatures) {
  EnvironmentSpec env;
  env.class0_mean.assign(2, 0.0);
  env.class1_mean.assign(2, 0.0);
  env.group_offset = {2.0, 0.0};
  env.noise = 0.1;
  env.bias = 0.5;
  Rng rng(4);
  double mean_pos = 0.0, mean_neg = 0.0;
  std::size_t n_pos = 0, n_neg = 0;
  for (int i = 0; i < 4000; ++i) {
    const Example e = SampleFromEnvironment(env, 0, &rng);
    if (e.sensitive == 1) {
      mean_pos += e.x[0];
      ++n_pos;
    } else {
      mean_neg += e.x[0];
      ++n_neg;
    }
  }
  EXPECT_NEAR(mean_pos / n_pos, 1.0, 0.05);
  EXPECT_NEAR(mean_neg / n_neg, -1.0, 0.05);
}

TEST(SyntheticTest, PairwiseRotationIsOrthogonal) {
  const Matrix r = PairwiseRotation(6, 30.0);
  const Matrix prod = MatMulBt(r, r);
  EXPECT_LT(MaxAbsDiff(prod, Matrix::Identity(6)), 1e-12);
}

TEST(SyntheticTest, PairwiseRotationZeroIsIdentity) {
  EXPECT_LT(MaxAbsDiff(PairwiseRotation(4, 0.0), Matrix::Identity(4)),
            1e-12);
}

TEST(SyntheticTest, RotationAppliedToSamples) {
  EnvironmentSpec env;
  env.class0_mean = {5.0, 0.0};
  env.class1_mean = {5.0, 0.0};
  env.noise = 1e-6;
  env.bias = 0.5;
  env.rotation = PairwiseRotation(2, 90.0);
  Rng rng(5);
  const Example e = SampleFromEnvironment(env, 0, &rng);
  // (5, 0) rotated by 90 degrees -> (0, 5).
  EXPECT_NEAR(e.x[0], 0.0, 1e-3);
  EXPECT_NEAR(e.x[1], 5.0, 1e-3);
}

TEST(SyntheticTest, ShiftApplied) {
  EnvironmentSpec env;
  env.class0_mean = {0.0};
  env.class1_mean = {0.0};
  env.noise = 1e-6;
  env.shift = {10.0};
  Rng rng(6);
  EXPECT_NEAR(SampleFromEnvironment(env, 0, &rng).x[0], 10.0, 1e-3);
}

TEST(SyntheticTest, DrawPrototypesOnSphere) {
  Rng rng(7);
  const auto protos = DrawPrototypes(5, 8, 3.0, &rng);
  ASSERT_EQ(protos.size(), 5u);
  for (const auto& p : protos) {
    EXPECT_NEAR(Norm2(p), 3.0, 1e-9);
  }
}

TEST(SyntheticTest, GenerateStreamValidation) {
  Rng rng(8);
  EXPECT_FALSE(GenerateStream({}, {}, &rng).ok());
  EnvironmentSpec env;
  env.class0_mean = {0.0};
  env.class1_mean = {0.0};
  // Unknown environment reference.
  EXPECT_FALSE(GenerateStream({env}, {TaskPlan{3, 10}}, &rng).ok());
  // Bad bias.
  EnvironmentSpec bad = env;
  bad.bias = 2.0;
  EXPECT_FALSE(GenerateStream({bad}, {TaskPlan{0, 10}}, &rng).ok());
  // Bad rotation shape.
  EnvironmentSpec badrot = env;
  badrot.rotation = Matrix(2, 2);
  EXPECT_FALSE(GenerateStream({badrot}, {TaskPlan{0, 10}}, &rng).ok());
}

TEST(SyntheticTest, EnvironmentIdsRecorded) {
  EnvironmentSpec env;
  env.class0_mean = {0.0};
  env.class1_mean = {0.0};
  Rng rng(9);
  const Result<std::vector<Dataset>> stream =
      GenerateStream({env, env}, {TaskPlan{1, 5}, TaskPlan{0, 5}}, &rng);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream.value()[0].environments()[0], 1);
  EXPECT_EQ(stream.value()[1].environments()[0], 0);
}

// --------------------------------------------------------------- Streams

struct StreamCase {
  std::string name;
  std::size_t expected_tasks;
};

class PaperStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(PaperStreamTest, ShapeAndContent) {
  StreamScale scale;
  scale.samples_per_task = 120;
  scale.seed = 77;
  const Result<std::vector<Dataset>> stream =
      MakePaperStream(GetParam().name, scale);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream.value().size(), GetParam().expected_tasks);
  for (const Dataset& task : stream.value()) {
    EXPECT_EQ(task.size(), 120u);
    EXPECT_GT(task.dim(), 0u);
    // Tasks contain a mix of labels and groups (overwhelmingly likely at
    // this size given the generators' parameters).
    EXPECT_GT(task.PositiveFraction(), 0.02);
    EXPECT_LT(task.PositiveFraction(), 0.98);
    EXPECT_GT(task.GroupFraction(), 0.02);
    EXPECT_LT(task.GroupFraction(), 0.98);
  }
  // All tasks share the dimension.
  for (const Dataset& task : stream.value()) {
    EXPECT_EQ(task.dim(), stream.value()[0].dim());
  }
}

TEST_P(PaperStreamTest, DeterministicGivenSeed) {
  StreamScale scale;
  scale.samples_per_task = 40;
  scale.seed = 123;
  const Result<std::vector<Dataset>> a =
      MakePaperStream(GetParam().name, scale);
  const Result<std::vector<Dataset>> b =
      MakePaperStream(GetParam().name, scale);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(MaxAbsDiff(a.value()[0].features(), b.value()[0].features()),
            1e-15);
  scale.seed = 124;
  const Result<std::vector<Dataset>> c =
      MakePaperStream(GetParam().name, scale);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(MaxAbsDiff(a.value()[0].features(), c.value()[0].features()),
            1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, PaperStreamTest,
    ::testing::Values(StreamCase{"rcmnist", 12}, StreamCase{"celeba", 12},
                      StreamCase{"fairface", 21}, StreamCase{"ffhq", 12},
                      StreamCase{"nysf", 16}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return info.param.name;
    });

TEST(StreamsTest, RcmnistEnvironmentBiases) {
  // The per-environment label-color correlations {0.9, 0.8, 0.7, 0.6}
  // must be realized in the generated tasks.
  RcmnistConfig config;
  config.scale.samples_per_task = 4000;
  config.scale.seed = 3;
  const Result<std::vector<Dataset>> stream = MakeRcmnistStream(config);
  ASSERT_TRUE(stream.ok());
  for (std::size_t env = 0; env < 4; ++env) {
    const Dataset& task = stream.value()[env * 3];
    std::size_t n1 = 0, pos1 = 0;
    for (std::size_t i = 0; i < task.size(); ++i) {
      if (task.labels()[i] == 1) {
        ++n1;
        if (task.sensitive()[i] == 1) ++pos1;
      }
    }
    EXPECT_NEAR(static_cast<double>(pos1) / n1, config.biases[env], 0.04)
        << "environment " << env;
  }
}

TEST(StreamsTest, NysfHasSixteenEnvironments) {
  NysfConfig config;
  config.scale.samples_per_task = 30;
  const Result<std::vector<Dataset>> stream = MakeNysfStream(config);
  ASSERT_TRUE(stream.ok());
  std::set<int> envs;
  for (const Dataset& task : stream.value()) {
    envs.insert(task.environments()[0]);
  }
  EXPECT_EQ(envs.size(), 16u);
}

TEST(StreamsTest, StationaryStreamSingleEnvironment) {
  StationaryConfig config;
  config.scale.samples_per_task = 50;
  config.num_tasks = 5;
  const Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream.value().size(), 5u);
  for (const Dataset& task : stream.value()) {
    for (int e : task.environments()) EXPECT_EQ(e, 0);
  }
}

TEST(StreamsTest, UnknownNameRejected) {
  StreamScale scale;
  const Result<std::vector<Dataset>> stream =
      MakePaperStream("mnist-3d", scale);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kNotFound);
}

TEST(StreamsTest, PaperDatasetNamesAllBuildable) {
  StreamScale scale;
  scale.samples_per_task = 25;
  for (const std::string& name : PaperDatasetNames()) {
    EXPECT_TRUE(MakePaperStream(name, scale).ok()) << name;
  }
}

}  // namespace
}  // namespace faction
