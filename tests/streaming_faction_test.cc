#include <cmath>
#include <cstdint>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/streaming_faction.h"
#include "data/streams.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"

namespace faction {
namespace {

StreamingFactionConfig SmallConfig(std::size_t dim = 6) {
  StreamingFactionConfig config;
  config.model.input_dim = dim;
  config.model.hidden_dims = {12, 6};
  config.train.epochs = 2;
  config.warm_start = 30;
  config.burn_in = 5;
  config.refit_interval = 20;
  config.seed = 3;
  return config;
}

EnvironmentSpec SmallEnv(std::size_t dim, Rng* rng) {
  const auto protos = DrawPrototypes(2, dim, 1.6, rng);
  EnvironmentSpec env;
  env.class0_mean = protos[0];
  env.class1_mean = protos[1];
  env.group_offset.assign(dim, 0.0);
  env.group_offset[0] = 0.9;
  env.noise = 0.7;
  env.bias = 0.65;
  return env;
}

TEST(StreamingFactionTest, WarmStartAlwaysQueries) {
  StreamingFaction streaming(SmallConfig());
  Rng rng(1);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  for (int i = 0; i < 30; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    const Result<bool> query = streaming.ShouldQuery(e);
    ASSERT_TRUE(query.ok());
    EXPECT_TRUE(query.value()) << "warm-start arrival " << i;
    ASSERT_TRUE(streaming.ProvideLabel(e).ok());
  }
  EXPECT_EQ(streaming.queries_made(), 30u);
  EXPECT_EQ(streaming.pool_size(), 30u);
  EXPECT_TRUE(streaming.has_estimator());
}

// The first `burn_in` scored arrivals after warm start only seed the
// incremental range: none is queried, even with the estimator fitted and
// alpha so large that any later arrival below the running maximum is.
TEST(StreamingFactionTest, BurnInArrivalsNeverQuery) {
  StreamingFactionConfig config = SmallConfig();
  config.alpha = 1e9;
  StreamingFaction streaming(config);
  Rng rng(4);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  for (std::size_t i = 0; i < config.warm_start; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    ASSERT_TRUE(streaming.ShouldQuery(e).value());
    ASSERT_TRUE(streaming.ProvideLabel(e).ok());
  }
  ASSERT_TRUE(streaming.has_estimator());
  for (std::size_t i = 0; i < config.burn_in; ++i) {
    const Result<bool> query =
        streaming.ShouldQuery(SampleFromEnvironment(env, 0, &rng));
    ASSERT_TRUE(query.ok());
    EXPECT_FALSE(query.value()) << "burn-in arrival " << i;
  }
  EXPECT_EQ(streaming.queries_made(), config.warm_start);
  // Past burn-in the same rule queries.
  bool queried = false;
  for (int i = 0; i < 20 && !queried; ++i) {
    queried = streaming.ShouldQuery(SampleFromEnvironment(env, 0, &rng))
                  .value();
  }
  EXPECT_TRUE(queried);
}

TEST(StreamingFactionTest, QueriesAreSelectiveAfterWarmStart) {
  StreamingFactionConfig config = SmallConfig();
  config.alpha = 1.0;
  StreamingFaction streaming(config);
  Rng rng(2);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  std::size_t queried = 0, total = 0;
  for (int i = 0; i < 600; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    const Result<bool> query = streaming.ShouldQuery(e);
    ASSERT_TRUE(query.ok());
    if (i >= 30) {
      ++total;
      if (query.value()) ++queried;
    }
    if (query.value()) {
      ASSERT_TRUE(streaming.ProvideLabel(e).ok());
    }
  }
  // Selective: queries a strict subset, but not nothing.
  EXPECT_GT(queried, 10u);
  EXPECT_LT(queried, total * 9 / 10);
  EXPECT_EQ(streaming.samples_seen(), 600u);
}

TEST(StreamingFactionTest, LearnsTheTask) {
  StreamingFactionConfig config = SmallConfig();
  StreamingFaction streaming(config);
  Rng rng(3);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  for (int i = 0; i < 800; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    if (streaming.ShouldQuery(e).value_or(false)) {
      ASSERT_TRUE(streaming.ProvideLabel(e).ok());
    }
  }
  // Held-out accuracy beats chance comfortably.
  std::size_t hits = 0;
  const std::size_t eval_n = 500;
  for (std::size_t i = 0; i < eval_n; ++i) {
    const Example e = SampleFromEnvironment(env, 0, &rng);
    const Result<int> pred = streaming.Predict(e.x);
    ASSERT_TRUE(pred.ok());
    if (pred.value() == e.label) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / eval_n, 0.7);
}

TEST(StreamingFactionTest, OodArrivalsQueriedMoreOften) {
  // After adapting to one environment, arrivals from a far-shifted one
  // should be queried at a visibly higher rate (epistemic spike).
  StreamingFactionConfig config = SmallConfig();
  config.alpha = 1.0;
  config.refit_interval = 1000000;  // freeze after initial fit
  StreamingFaction streaming(config);
  Rng rng(4);
  EnvironmentSpec env = SmallEnv(6, &rng);
  for (int i = 0; i < 60; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    if (streaming.ShouldQuery(e).value_or(false)) {
      ASSERT_TRUE(streaming.ProvideLabel(e).ok());
    }
  }
  ASSERT_TRUE(streaming.has_estimator());
  // Prime the normalizer range with in-distribution arrivals (decisions
  // discarded).
  std::size_t in_hits = 0, in_total = 0;
  for (int i = 0; i < 300; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    ++in_total;
    if (streaming.ShouldQuery(e).value_or(false)) ++in_hits;
  }
  EnvironmentSpec shifted = env;
  shifted.shift.assign(6, 12.0);
  std::size_t ood_hits = 0, ood_total = 0;
  for (int i = 0; i < 300; ++i) {
    Example e = SampleFromEnvironment(shifted, 1, &rng);
    ++ood_total;
    if (streaming.ShouldQuery(e).value_or(false)) ++ood_hits;
  }
  const double in_rate = static_cast<double>(in_hits) / in_total;
  const double ood_rate = static_cast<double>(ood_hits) / ood_total;
  EXPECT_GT(ood_rate, in_rate * 1.5)
      << "in=" << in_rate << " ood=" << ood_rate;
}

TEST(StreamingFactionTest, RejectsWrongDimension) {
  StreamingFaction streaming(SmallConfig(6));
  Example e;
  e.x.assign(4, 0.0);
  EXPECT_FALSE(streaming.ShouldQuery(e).ok());
  EXPECT_FALSE(streaming.Predict({1.0, 2.0}).ok());
}

TEST(StreamingFactionTest, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    StreamingFactionConfig config = SmallConfig();
    config.seed = seed;
    StreamingFaction streaming(config);
    Rng rng(9);
    EnvironmentSpec env;
    Rng env_rng(10);
    env = SmallEnv(6, &env_rng);
    std::vector<bool> decisions;
    for (int i = 0; i < 200; ++i) {
      Example e = SampleFromEnvironment(env, 0, &rng);
      const bool q = streaming.ShouldQuery(e).value_or(false);
      decisions.push_back(q);
      if (q) streaming.ProvideLabel(e).ok();
    }
    return decisions;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

// A session whose training always diverges retries its refit once per
// refit_interval labels, not on every label: a failed attempt restarts the
// count and disarms the warm-start trigger. Without an estimator the
// fallback coin queries about three arrivals in four, so 300 arrivals buy
// over 200 labels.
TEST(StreamingFactionTest, DivergedRefitRetriesOncePerInterval) {
  Telemetry::Enable()->Reset();
  StreamingFactionConfig config = SmallConfig();
  config.train.learning_rate = 1e300;
  StreamingFaction streaming(config);
  Rng rng(12);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  std::size_t labels = 0;
  std::uint64_t failures = 0;
  for (int i = 0; i < 300; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    if (!streaming.ShouldQuery(e).value_or(false)) continue;
    ++labels;
    const Status status = streaming.ProvideLabel(e);
    if (!status.ok()) {
      EXPECT_EQ(StatusCode::kNumericalError, status.code());
      ++failures;
    }
  }
  const std::uint64_t refits = TelemetryCounterValue("streaming.refit");
  EXPECT_GT(labels, 4 * config.refit_interval);
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(failures, refits);
  EXPECT_LE(refits, labels / config.refit_interval + 1);
  EXPECT_FALSE(streaming.has_estimator());
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// ---------------------------------------------------------------------------
// Density forgetting (PR 8): sliding-window and decayed configurations.

TEST(StreamingFactionWindowTest, WindowedStreamEvictsAndKeepsLearning) {
  Telemetry::Enable()->Reset();
  StreamingFactionConfig config = SmallConfig();
  config.density_window = 40;
  config.density_decay = 0.98;
  StreamingFaction streaming(config);
  Rng rng(11);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  for (int i = 0; i < 500; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    if (streaming.ShouldQuery(e).value_or(false)) {
      ASSERT_TRUE(streaming.ProvideLabel(e).ok());
    }
  }
  // Far more than `density_window` labels were folded, so the ring must
  // have evicted through the rank-1 downdate path; the estimator survives.
  EXPECT_GT(TelemetryCounterValue("density.window_evictions"), 0u);
  EXPECT_EQ(TelemetryCounterValue("density.window_evict_failed"), 0u);
  EXPECT_TRUE(streaming.has_estimator());
  std::size_t hits = 0;
  const std::size_t eval_n = 400;
  for (std::size_t i = 0; i < eval_n; ++i) {
    const Example e = SampleFromEnvironment(env, 0, &rng);
    const Result<int> pred = streaming.Predict(e.x);
    ASSERT_TRUE(pred.ok());
    if (pred.value() == e.label) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / eval_n, 0.7);
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

TEST(StreamingFactionWindowTest, WindowImpliesForgettingCovariance) {
  // A windowed or decayed run silently flips to forgetting-mode ridge
  // covariance (shrinkage cannot be rank-1 maintained); the stream must
  // stay functional from the very first refit.
  StreamingFactionConfig config = SmallConfig();
  config.density_window = 32;
  StreamingFaction streaming(config);
  Rng rng(12);
  const EnvironmentSpec env = SmallEnv(6, &rng);
  for (int i = 0; i < 80; ++i) {
    Example e = SampleFromEnvironment(env, 0, &rng);
    if (streaming.ShouldQuery(e).value_or(false)) {
      ASSERT_TRUE(streaming.ProvideLabel(e).ok());
    }
  }
  EXPECT_TRUE(streaming.has_estimator());
}

TEST(StreamingFactionWindowTest, WindowedDecisionsDeterministicAcrossThreads) {
  // The windowed evict -> downdate -> score path rides the dispatched
  // triangular-solve kernels; decisions must not depend on the worker
  // count (DESIGN.md §15's bitwise-determinism contract).
  auto run_once = [](int nthreads) {
    const std::size_t saved = ParallelThreadCount();
    SetParallelThreadCount(nthreads);
    StreamingFactionConfig config = SmallConfig();
    config.density_window = 36;
    config.density_decay = 0.95;
    StreamingFaction streaming(config);
    Rng rng(13);
    EnvironmentSpec env;
    Rng env_rng(14);
    env = SmallEnv(6, &env_rng);
    std::vector<bool> decisions;
    for (int i = 0; i < 300; ++i) {
      Example e = SampleFromEnvironment(env, 0, &rng);
      const bool q = streaming.ShouldQuery(e).value_or(false);
      decisions.push_back(q);
      if (q) streaming.ProvideLabel(e).ok();
    }
    SetParallelThreadCount(saved);
    return decisions;
  };
  EXPECT_EQ(run_once(1), run_once(8));
}

TEST(StreamingFactionWindowTest, WindowedDeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    StreamingFactionConfig config = SmallConfig();
    config.seed = seed;
    config.density_window = 36;
    config.density_decay = 0.9;
    StreamingFaction streaming(config);
    Rng rng(15);
    EnvironmentSpec env;
    Rng env_rng(16);
    env = SmallEnv(6, &env_rng);
    std::vector<bool> decisions;
    for (int i = 0; i < 250; ++i) {
      Example e = SampleFromEnvironment(env, 0, &rng);
      const bool q = streaming.ShouldQuery(e).value_or(false);
      decisions.push_back(q);
      if (q) streaming.ProvideLabel(e).ok();
    }
    return decisions;
  };
  EXPECT_EQ(run_once(21), run_once(21));
  EXPECT_NE(run_once(21), run_once(22));
}

TEST(StreamingFactionWindowTest, RejectsInvalidDecay) {
  StreamingFactionConfig config = SmallConfig();
  config.density_decay = 0.0;
  EXPECT_DEATH(StreamingFaction streaming(config), "CHECK failed");
}

}  // namespace
}  // namespace faction
