// Speedup guard for the fast paths that keep a slow reference beside them.
// Each fast path computes the same result as its reference (the parity
// suites check that bitwise), so no parity test can see the fast path
// quietly losing its speed. This guard times both sides and fails when the
// speedup falls under a floor:
//
//   im2col conv       >= 6.29x  over the naive loops run serially;
//   incremental refit >= 17.0x  over a batch refit of a 2400-row pool;
//   rank-1 slide      >= 3.89x  over refitting a W=2048 window;
//   warm start        >= 10x    over replaying a 64-session fleet.
//
// The conv pair runs the naive loops serially and the im2col path on the
// pool at the default thread count; the density pairs run serially on
// both sides, as every dense kernel does. Timing is min-of-N with the two
// sides interleaved inside one process, so a slow phase of the host slows
// both alike. Registered only in optimized, unsanitized builds and run serially
// by ctest (tests/CMakeLists.txt).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "data/streams.h"
#include "density/fair_density.h"
#include "nn/conv.h"
#include "serve/checkpoint.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "tensor/image.h"

#include "gtest/gtest.h"

namespace faction {
namespace {

// Arrivals folded per acquisition round and the sliding-window length.
constexpr std::size_t kAcquisition = 25;
constexpr std::size_t kWindow = 2048;
constexpr std::size_t kPoolRows = 2400;
constexpr std::size_t kDim = 16;

// Runs `reps` rounds of reference then fast path, keeping each side's
// fastest round, and checks reference / fast >= floor.
void ExpectSpeedup(const char* what, int reps, double floor,
                   const std::function<void()>& reference,
                   const std::function<void()>& fast) {
  double best_reference = std::numeric_limits<double>::infinity();
  double best_fast = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    Timer reference_timer;
    reference();
    best_reference =
        std::min(best_reference, reference_timer.ElapsedSeconds());
    Timer fast_timer;
    fast();
    best_fast = std::min(best_fast, fast_timer.ElapsedSeconds());
  }
  const double speedup = best_reference / best_fast;
  std::printf("%s: reference %.3f ms, fast %.3f ms, %.2fx (floor %.2fx)\n",
              what, best_reference * 1e3, best_fast * 1e3, speedup, floor);
  EXPECT_GE(speedup, floor) << what << ": reference " << best_reference * 1e3
                            << " ms, fast " << best_fast * 1e3 << " ms";
}

Dataset MakePool(std::size_t n, std::uint64_t seed) {
  StationaryConfig config;
  config.scale.samples_per_task = n;
  config.scale.seed = seed;
  config.dim = kDim;
  config.num_tasks = 1;
  Result<std::vector<Dataset>> stream = MakeStationaryStream(config);
  EXPECT_TRUE(stream.ok());
  return std::move(stream.value()[0]);
}

// Conv2d's im2col/GEMM forward against the retained naive loops on a
// 128-image 3x16x16 batch with 8 filters.
TEST(SpeedGuard, Conv2dIm2colOverNaive) {
  Rng rng(33);
  const ImageShape shape{3, 16, 16};
  const Conv2d conv(shape, 8, &rng);
  Matrix x(128, shape.Flat());
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  ExpectSpeedup(
      "conv 128x3x16x16 -> 8", 30, 6.29,
      [&] {
        const Matrix y = conv.ApplyNaive(x);
        ASSERT_EQ(y.rows(), x.rows());
      },
      [&] {
        const Matrix y = conv.ForwardInference(x);
        ASSERT_EQ(y.rows(), x.rows());
      });
}

// One acquisition round folded into the sufficient statistics of a
// 2400-row estimator against refitting the whole pool.
TEST(SpeedGuard, IncrementalRefitOverBatchRefit) {
  const Dataset pool = MakePool(kPoolRows, 41);
  const Dataset fresh = MakePool(400, 42);
  const CovarianceConfig config;
  Result<FairDensityEstimator> est = FairDensityEstimator::Fit(
      pool.features(), pool.labels(), pool.sensitive(), config);
  ASSERT_TRUE(est.ok());
  Matrix rows(kAcquisition, kDim);
  std::vector<int> ys(kAcquisition), ss(kAcquisition);
  std::size_t cursor = 0;
  ExpectSpeedup(
      "density refit 2400 rows + 25", 300, 17.0,
      [&] {
        const Result<FairDensityEstimator> refit = FairDensityEstimator::Fit(
            pool.features(), pool.labels(), pool.sensitive(), config);
        ASSERT_TRUE(refit.ok());
      },
      [&] {
        for (std::size_t i = 0; i < kAcquisition; ++i) {
          const std::size_t idx = (cursor + i) % fresh.size();
          std::copy(fresh.features().row_data(idx),
                    fresh.features().row_data(idx) + kDim, rows.row_data(i));
          ys[i] = fresh.labels()[idx];
          ss[i] = fresh.sensitive()[idx];
        }
        cursor = (cursor + kAcquisition) % fresh.size();
        ASSERT_TRUE(est.value().Update(rows, ys, ss, config).ok());
      });
}

// Sliding a W=2048 window by one round over a 2400-row stream: 25 rank-1
// downdates plus 25 rank-1 updates against a batch Fit of the window.
TEST(SpeedGuard, WindowSlideOverWindowedFit) {
  const Dataset pool = MakePool(kPoolRows, 43);
  CovarianceConfig config;
  config.forgetting = true;
  const auto copy_window = [&](std::size_t start, Matrix* window,
                               std::vector<int>* ys, std::vector<int>* ss) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      const std::size_t idx = (start + i) % kPoolRows;
      std::copy(pool.features().row_data(idx),
                pool.features().row_data(idx) + kDim, window->row_data(i));
      (*ys)[i] = pool.labels()[idx];
      (*ss)[i] = pool.sensitive()[idx];
    }
  };
  Matrix window(kWindow, kDim);
  std::vector<int> ys(kWindow), ss(kWindow);
  copy_window(0, &window, &ys, &ss);
  Result<FairDensityEstimator> est =
      FairDensityEstimator::Fit(window, ys, ss, config);
  ASSERT_TRUE(est.ok());
  std::size_t batch_start = 0;
  std::size_t oldest = 0;
  ExpectSpeedup(
      "window slide W=2048 by 25", 300, 3.89,
      [&] {
        batch_start = (batch_start + kAcquisition) % kPoolRows;
        copy_window(batch_start, &window, &ys, &ss);
        const Result<FairDensityEstimator> refit =
            FairDensityEstimator::Fit(window, ys, ss, config);
        ASSERT_TRUE(refit.ok());
      },
      [&] {
        for (std::size_t i = 0; i < kAcquisition; ++i) {
          const std::size_t evict = (oldest + i) % kPoolRows;
          const std::size_t fold = (oldest + kWindow + i) % kPoolRows;
          ASSERT_TRUE(est.value()
                          .DowndateOne(pool.features().row_data(evict),
                                       pool.labels()[evict],
                                       pool.sensitive()[evict], config)
                          .ok());
          ASSERT_TRUE(est.value()
                          .UpdateOne(pool.features().row_data(fold),
                                     pool.labels()[fold],
                                     pool.sensitive()[fold], config)
                          .ok());
        }
        oldest = (oldest + kAcquisition) % kPoolRows;
      });
}

// ------------------------------------------------ warm start vs replay

constexpr std::size_t kSessions = 64;
constexpr std::size_t kSteps = 2000;
constexpr int kWorkers = 2;
constexpr std::size_t kInputDim = 6;

StreamingFactionConfig SessionConfig(std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = kInputDim;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 12;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.seed = seed;
  return config;
}

std::vector<Example> MakeStream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(kSteps);
  for (Example& ex : stream) {
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.x.resize(kInputDim);
    const double center = ex.label == 1 ? 1.5 : -1.5;
    const double shift = ex.sensitive == 1 ? 0.4 : -0.4;
    for (double& v : ex.x) v = rng.Gaussian(center + shift, 1.0);
  }
  return stream;
}

ServeRuntimeOptions FleetOptions() {
  ServeRuntimeOptions options;
  options.workers = kWorkers;
  options.max_sessions = kSessions;
  options.record_latency = false;
  return options;
}

// Serves every arrival of every session round-robin on `runtime`.
std::vector<ServeSession*> ServeFleet(
    ServeRuntime* runtime, const std::vector<std::vector<Example>>& streams) {
  std::vector<ServeSession*> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ServeSessionOptions options;
    options.stream_id = s;
    options.faction = SessionConfig(1 + s);
    options.mailbox_capacity = kSteps;
    sessions.push_back(runtime->CreateSession(options));
  }
  for (std::size_t i = 0; i < kSteps; ++i) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_TRUE(runtime->Offer(sessions[s], streams[s][i]));
    }
  }
  runtime->Drain();
  return sessions;
}

// Recovering a 64-session fleet after 2000 arrivals each: WarmStart from
// its checkpoints (taken every 256 steps, then pinned at the last step)
// against re-processing the whole arrival log. The log is built up front:
// reading it back is common to both recovery paths.
TEST(SpeedGuard, WarmStartOverReplay) {
  // Commits skip the disk barrier: the guard times decoding, not the disk.
  ::setenv("FACTION_NO_FSYNC", "1", 1);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("faction_speed_guard_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::vector<Example>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(MakeStream(1000 + s));
  }
  {
    ServeRuntime runtime(FleetOptions());
    CheckpointOptions ckpt;
    ckpt.dir = dir.string();
    ckpt.interval_steps = 256;
    runtime.EnableCheckpoints(ckpt);
    for (ServeSession* session : ServeFleet(&runtime, streams)) {
      runtime.checkpoints()->SnapshotNow(session);
    }
    runtime.checkpoints()->Flush();
    ASSERT_EQ(runtime.checkpoints()->failures(), 0u);
  }
  const std::string manifest = (dir / "manifest").string();
  ExpectSpeedup(
      "fleet recovery 64 sessions x 2000 steps", 3, 10.0,
      [&] {
        ServeRuntime runtime(FleetOptions());
        ServeFleet(&runtime, streams);
      },
      [&] {
        ServeRuntime runtime(FleetOptions());
        const Result<WarmStartReport> report = runtime.WarmStart(manifest);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_EQ(report.value().sessions, kSessions);
      });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace faction
