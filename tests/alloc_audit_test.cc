// Allocation-audit layer tests (DESIGN.md §13).
//
// The centerpiece is the steady-state gate: with FACTION_ALLOC_AUDIT
// compiled in, a StreamingFaction driven past its warm-up must serve
// every subsequent arrival — ShouldQuery plus the non-refit ProvideLabel
// fold — with *zero* heap allocations on the calling thread. The other
// tests pin the audit API itself: counter tracking, count-mode ban
// tallies, allow-scope exemption, and the fatal ban's abort.
//
// All audit-dependent tests GTEST_SKIP in trees built without the
// FACTION_ALLOC_AUDIT option, so this binary is safe in every preset;
// the dedicated CI job builds with the option ON and makes the gate
// binding.
#include "common/alloc_audit.h"

#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/state_codec.h"

namespace faction {
namespace {

TEST(AllocAudit, ModeMatchesCompileTimeFlag) {
  EXPECT_STREQ(AllocAuditEnabled() ? "on" : "off", AllocAuditMode());
}

TEST(AllocAudit, DisabledBuildReportsZeroStats) {
  if (AllocAuditEnabled()) GTEST_SKIP() << "audit build: stats are live";
  const AllocationStats stats = ThreadAllocationStats();
  EXPECT_EQ(0u, stats.allocs);
  EXPECT_EQ(0u, stats.frees);
  EXPECT_EQ(0u, stats.bytes);
  EXPECT_EQ(0u, stats.peak_bytes);
}

TEST(AllocAudit, CountersTrackAllocationsAndFrees) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  constexpr std::size_t kDoubles = 1024;
  const AllocationStats before = ThreadAllocationStats();
  {
    std::vector<double> v(kDoubles, 1.0);
    const AllocationStats mid = ThreadAllocationStats();
    EXPECT_GE(mid.allocs, before.allocs + 1);
    EXPECT_GE(mid.bytes, before.bytes + kDoubles * sizeof(double));
    EXPECT_GE(mid.peak_bytes, kDoubles * sizeof(double));
  }
  const AllocationStats after = ThreadAllocationStats();
  EXPECT_GE(after.frees, before.frees + 1);
}

TEST(AllocAudit, CountBanTalliesViolations) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  constexpr std::size_t kDoubles = 256;
  ScopedAllocationBan ban("test.count",
                          ScopedAllocationBan::Mode::kCount);
  EXPECT_EQ(0u, ban.violations());
  EXPECT_EQ(0u, ban.violation_bytes());
  std::vector<double> v(kDoubles, 0.0);
  EXPECT_GE(ban.violations(), 1u);
  EXPECT_GE(ban.violation_bytes(), kDoubles * sizeof(double));
}

TEST(AllocAudit, AllowScopeExemptsFromBan) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  ScopedAllocationBan ban("test.allow",
                          ScopedAllocationBan::Mode::kCount);
  {
    ScopedAllocationAllow allow;
    std::vector<double> v(64, 0.0);
  }
  EXPECT_EQ(0u, ban.violations());
  // Stats still observe the exempted allocation; only the ban is waived.
  const AllocationStats stats = ThreadAllocationStats();
  EXPECT_GE(stats.allocs, 1u);
}

TEST(AllocAuditDeathTest, FatalBanAborts) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  EXPECT_DEATH(
      {
        ScopedAllocationBan ban("test.fatal",
                                ScopedAllocationBan::Mode::kFatal);
        // A volatile length defeats C++14 allocation elision: the new
        // expression must actually reach the interposed operator.
        volatile std::size_t n = 64;
        std::vector<double> v(n, 0.0);
        (void)v;
      },
      "ScopedAllocationBan violated at site 'test.fatal'");
}

// ---------------------------------------------------------------------------
// The steady-state zero-allocation gate.

StreamingFactionConfig SmallStreamingConfig() {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
  config.model.hidden_dims = {8};
  config.model.num_classes = 2;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.warm_start = 24;
  config.burn_in = 6;
  config.refit_interval = 20;
  config.seed = 7;
  return config;
}

// Pre-generates a labeled synthetic stream so the measured loop below
// performs no allocations of its own: two Gaussian class clusters with a
// sensitive-group shift, balanced enough that every (class x group)
// density component exists after the first refit.
std::vector<Example> MakeStream(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Example> stream(n);
  for (std::size_t i = 0; i < n; ++i) {
    Example& ex = stream[i];
    ex.label = rng.Bernoulli(0.5) ? 1 : 0;
    ex.sensitive = rng.Bernoulli(0.5) ? 1 : -1;
    ex.environment = 0;
    ex.x.resize(dim);
    const double center = ex.label == 1 ? 1.5 : -1.5;
    const double shift = ex.sensitive == 1 ? 0.4 : -0.4;
    for (std::size_t d = 0; d < dim; ++d) {
      ex.x[d] = rng.Gaussian(center + shift, 1.0);
    }
  }
  return stream;
}

TEST(AllocAudit, SteadyStateArrivalsAreAllocationFree) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  const StreamingFactionConfig config = SmallStreamingConfig();
  StreamingFaction streaming(config);
  const std::vector<Example> stream =
      MakeStream(600, config.model.input_dim, 17);

  // Arrivals before this index warm every arena shape, scratch buffer,
  // and density component across several refit cycles; afterwards the
  // gate is binding.
  constexpr std::size_t kWarmupArrivals = 400;

  // Mirror of StreamingFaction's private refit trigger so the (allocating,
  // FACTION_COLD) Refit arrivals can be excluded from the measurement:
  // ProvideLabel refits when the post-append label count reaches
  // refit_interval, or on the first arrival whose append brings the pool
  // to warm_start.
  std::size_t labels_since_refit = 0;
  bool trained_once = false;
  std::size_t measured_queries = 0;
  std::size_t measured_folds = 0;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Example& ex = stream[i];
    const bool measure = i >= kWarmupArrivals;

    AllocationStats before = ThreadAllocationStats();
    const Result<bool> take = streaming.ShouldQuery(ex);
    AllocationStats after = ThreadAllocationStats();
    ASSERT_TRUE(take.ok()) << take.status().ToString();
    if (measure) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "ShouldQuery allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured_queries;
    }
    if (!take.value()) continue;

    const bool will_refit =
        labels_since_refit + 1 >= config.refit_interval ||
        (!trained_once && streaming.pool_size() + 1 >= config.warm_start);
    if (will_refit) {
      ASSERT_TRUE(streaming.ProvideLabel(ex).ok());
      labels_since_refit = 0;
      trained_once = true;
      continue;
    }
    before = ThreadAllocationStats();
    const Status fold = streaming.ProvideLabel(ex);
    after = ThreadAllocationStats();
    ASSERT_TRUE(fold.ok()) << fold.ToString();
    ++labels_since_refit;
    if (measure) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "ProvideLabel fold allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured_folds;
    }
  }

  // The gate must not be vacuous: the post-warmup window has to contain a
  // healthy number of both measured operations.
  EXPECT_GE(measured_queries, 100u);
  EXPECT_GE(measured_folds, 10u);
  EXPECT_TRUE(streaming.has_estimator());
  EXPECT_GT(streaming.pool_size(), config.warm_start);
}

// The sliding-window variant of the same gate (PR 8): with density_window
// set, every steady-state fold past the window first evicts the oldest
// ring entry through the rank-1 Cholesky downdate before absorbing the
// new embedding. The ring is pre-sized in the constructor and the
// downdate works entirely in the estimator's cached factors plus the
// caller's scratch, so the evict -> downdate -> fold arrival must stay
// exactly as allocation-free as the grow-only path.
TEST(AllocAudit, WindowedSteadyStateArrivalsAreAllocationFree) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  StreamingFactionConfig config = SmallStreamingConfig();
  config.density_window = 30;  // smaller than the warmed pool: evictions fire
  config.density_decay = 0.98;
  StreamingFaction streaming(config);
  const std::vector<Example> stream =
      MakeStream(600, config.model.input_dim, 17);

  constexpr std::size_t kWarmupArrivals = 400;

  std::size_t labels_since_refit = 0;
  bool trained_once = false;
  std::size_t measured_queries = 0;
  std::size_t measured_folds = 0;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Example& ex = stream[i];
    const bool measure = i >= kWarmupArrivals;

    AllocationStats before = ThreadAllocationStats();
    const Result<bool> take = streaming.ShouldQuery(ex);
    AllocationStats after = ThreadAllocationStats();
    ASSERT_TRUE(take.ok()) << take.status().ToString();
    if (measure) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "windowed ShouldQuery allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured_queries;
    }
    if (!take.value()) continue;

    const bool will_refit =
        labels_since_refit + 1 >= config.refit_interval ||
        (!trained_once && streaming.pool_size() + 1 >= config.warm_start);
    if (will_refit) {
      ASSERT_TRUE(streaming.ProvideLabel(ex).ok());
      labels_since_refit = 0;
      trained_once = true;
      continue;
    }
    before = ThreadAllocationStats();
    const Status fold = streaming.ProvideLabel(ex);
    after = ThreadAllocationStats();
    ASSERT_TRUE(fold.ok()) << fold.ToString();
    ++labels_since_refit;
    if (measure) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "windowed evict+fold allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured_folds;
    }
  }

  EXPECT_GE(measured_queries, 100u);
  EXPECT_GE(measured_folds, 10u);
  EXPECT_TRUE(streaming.has_estimator());
}

// The same gate through the serve layer: with the job system in
// synchronous mode (workers = 0) the entire Offer path — mailbox push,
// schedule CAS, job submit, drain, ShouldQuery + fold — runs on the
// calling thread, so the thread-local allocation counters see every byte
// the scheduler touches. Job nodes come from the pre-sized arena and the
// mailbox slots are pre-sized, so a steady-state arrival must allocate
// nothing.
TEST(AllocAudit, ServeOfferPathIsAllocationFreeInSteadyState) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  const StreamingFactionConfig config = SmallStreamingConfig();

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;  // synchronous: audit the calling thread
  runtime_options.max_sessions = 1;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);

  ServeSessionOptions session_options;
  session_options.stream_id = 1;
  session_options.faction = config;
  session_options.mailbox_capacity = 8;
  session_options.decision_log_capacity = 600;  // recording must be free too
  ServeSession* session = runtime.CreateSession(session_options);

  const std::vector<Example> stream =
      MakeStream(600, config.model.input_dim, 17);
  constexpr std::size_t kWarmupArrivals = 400;

  // Refits are FACTION_COLD and allocate by design; whether an arrival
  // refit is only knowable after the query decision, so the refit mirror
  // runs post-hoc on queries_made()/pool_size() deltas and voids that
  // arrival's measurement.
  std::size_t labels_since_refit = 0;
  bool trained_once = false;
  std::size_t measured = 0;

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::size_t queries_before = session->faction().queries_made();
    const std::size_t pool_before = session->faction().pool_size();

    const AllocationStats before = ThreadAllocationStats();
    const bool accepted = runtime.Offer(session, stream[i]);
    const AllocationStats after = ThreadAllocationStats();
    ASSERT_TRUE(accepted);  // sync mode drains inline: mailbox never fills

    const bool queried =
        session->faction().queries_made() > queries_before;
    bool refit = false;
    if (queried) {
      refit = labels_since_refit + 1 >= config.refit_interval ||
              (!trained_once && pool_before + 1 >= config.warm_start);
      if (refit) {
        labels_since_refit = 0;
        trained_once = true;
      } else {
        ++labels_since_refit;
      }
    }
    if (i >= kWarmupArrivals && !refit) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "serve Offer allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured;
    }
  }
  runtime.Drain();

  EXPECT_GE(measured, 150u);
  EXPECT_TRUE(session->faction().has_estimator());
  EXPECT_EQ(stream.size(), session->steps());
  EXPECT_EQ(stream.size(), session->decisions().size());
}

// The same Offer path with real workers: the calling thread pushes into
// the mailbox, wins the schedule CAS, submits the drain job into the
// injection ring, bumps the work counter, checks the sleeper count and,
// when a worker parked, wakes it through the park lock and condvar. None
// of that may allocate. Each arrival is offered to an idle session (the
// previous drain finished), so every Offer submits; every other arrival
// first waits past the spin budget, so the workers have parked and the
// submit takes the wake path. The drains run on the workers and are not
// measured here: the counters are the calling thread's.
TEST(AllocAudit, ServeOfferPathIsAllocationFreeWithWorkers) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  const StreamingFactionConfig config = SmallStreamingConfig();

  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 2;
  runtime_options.max_sessions = 1;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);

  ServeSessionOptions session_options;
  session_options.stream_id = 1;
  session_options.faction = config;
  session_options.mailbox_capacity = 8;
  ServeSession* session = runtime.CreateSession(session_options);

  const std::vector<Example> stream =
      MakeStream(300, config.model.input_dim, 17);
  constexpr std::size_t kWarmupArrivals = 100;
  std::size_t measured = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    runtime.Drain();
    if (i % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const AllocationStats before = ThreadAllocationStats();
    const bool accepted = runtime.Offer(session, stream[i]);
    const AllocationStats after = ThreadAllocationStats();
    ASSERT_TRUE(accepted);
    if (i >= kWarmupArrivals) {
      EXPECT_EQ(before.allocs, after.allocs)
          << "serve Offer with workers allocated on arrival " << i << " ("
          << after.bytes - before.bytes << " bytes)";
      ++measured;
    }
  }
  runtime.Drain();

  EXPECT_EQ(200u, measured);
  EXPECT_EQ(stream.size(), session->steps());
}

// Checkpoint capture (serve/state_codec.h) runs on the hot drain path:
// once the destination SessionState has been warmed by one capture of the
// same shapes, every subsequent capture must be pure copy-assignment into
// retained capacity — zero allocations, even with the sliding window and
// forgetting-mode Gaussians in play.
TEST(AllocAudit, SnapshotCaptureIsAllocationFreeOnceWarm) {
  if (!AllocAuditEnabled()) GTEST_SKIP() << "built without audit";
  StreamingFactionConfig config = SmallStreamingConfig();
  config.density_window = 30;
  config.density_decay = 0.98;
  StreamingFaction streaming(config);
  const std::vector<Example> stream =
      MakeStream(600, config.model.input_dim, 17);
  for (std::size_t i = 0; i < 400; ++i) {
    if (streaming.ShouldQuery(stream[i]).value()) {
      ASSERT_TRUE(streaming.ProvideLabel(stream[i]).ok());
    }
  }

  SessionState state;
  CaptureSessionState(streaming, &state);  // warm the destination buffers

  // More arrivals between captures, as on the serve path, then a re-warm
  // capture: a pool that grew since the last capture may legitimately
  // extend the destination (amortized-rare, like any pool append)...
  for (std::size_t i = 400; i < 410; ++i) {
    if (streaming.ShouldQuery(stream[i]).value()) {
      ASSERT_TRUE(streaming.ProvideLabel(stream[i]).ok());
    }
  }
  CaptureSessionState(streaming, &state);

  // ...but a capture whose shapes match the previous one (the dominant
  // steady-state case) must be pure copies into retained capacity.
  {
    ScopedAllocationBan ban("checkpoint.capture",
                            ScopedAllocationBan::Mode::kCount);
    const AllocationStats before = ThreadAllocationStats();
    CaptureSessionState(streaming, &state);
    const AllocationStats after = ThreadAllocationStats();
    EXPECT_EQ(before.allocs, after.allocs)
        << "warm snapshot capture allocated "
        << after.bytes - before.bytes << " bytes";
  }
  EXPECT_EQ(streaming.pool_size(), state.pool_size);
  EXPECT_TRUE(state.density.has_value);
  EXPECT_GT(state.ring_size, 0u);
}

}  // namespace
}  // namespace faction
