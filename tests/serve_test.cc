// Serve-layer tests (DESIGN.md §14): work-stealing deque semantics and a
// multi-thread stress (the TSan target), job-system execution and the
// handle contract, and the replay gate — 64 interleaved sessions served at
// 1 worker and at 8 workers must produce bitwise-identical per-session
// query decisions, model parameters, and metrics to running each stream
// alone.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "common/telemetry.h"
#include "core/streaming_faction.h"
#include "data/dataset.h"
#include "serve/job_system.h"
#include "serve/serve_runtime.h"
#include "serve/session.h"
#include "serve/session_registry.h"

namespace faction {
namespace {

// ---------------------------------------------------------------------------
// WorkStealingDeque

TEST(WorkStealingDeque, OwnerLifoThiefFifo) {
  WorkStealingDeque dq(8);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_TRUE(dq.Push(v));
  EXPECT_EQ(4u, dq.SizeEstimate());

  std::uint32_t v = 0;
  EXPECT_TRUE(dq.Pop(&v));
  EXPECT_EQ(3u, v);  // owner pops newest
  EXPECT_TRUE(dq.Steal(&v));
  EXPECT_EQ(0u, v);  // thief steals oldest
  EXPECT_TRUE(dq.Pop(&v));
  EXPECT_EQ(2u, v);
  EXPECT_TRUE(dq.Steal(&v));
  EXPECT_EQ(1u, v);
  EXPECT_FALSE(dq.Pop(&v));
  EXPECT_FALSE(dq.Steal(&v));
  EXPECT_EQ(0u, dq.SizeEstimate());
}

TEST(WorkStealingDeque, PushRefusesWhenFull) {
  WorkStealingDeque dq(4);  // rounds to capacity 4
  EXPECT_EQ(4u, dq.capacity());
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_TRUE(dq.Push(v));
  EXPECT_FALSE(dq.Push(99));
  std::uint32_t v = 0;
  EXPECT_TRUE(dq.Steal(&v));
  EXPECT_EQ(0u, v);
  EXPECT_TRUE(dq.Push(99));  // freed slot is reusable
}

// The TSan target: one owner interleaving pushes and pops with three
// concurrent thieves. Every pushed value must be consumed exactly once,
// across any interleaving.
TEST(WorkStealingDeque, StressEveryValueConsumedExactlyOnce) {
  constexpr std::uint32_t kValues = 20000;
  constexpr int kThieves = 3;
  WorkStealingDeque dq(64);
  std::vector<std::atomic<std::uint32_t>> seen(kValues);
  std::atomic<std::uint32_t> consumed{0};
  std::atomic<bool> done_pushing{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::uint32_t v = 0;
      while (!done_pushing.load(std::memory_order_seq_cst) ||
             consumed.load(std::memory_order_seq_cst) < kValues) {
        if (dq.Steal(&v)) {
          seen[v].fetch_add(1, std::memory_order_seq_cst);
          consumed.fetch_add(1, std::memory_order_seq_cst);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: push everything (spinning past full), popping a batch every so
  // often so the owner path races the thieves too.
  std::uint32_t v = 0;
  for (std::uint32_t i = 0; i < kValues; ++i) {
    while (!dq.Push(i)) {
      if (dq.Pop(&v)) {
        seen[v].fetch_add(1, std::memory_order_seq_cst);
        consumed.fetch_add(1, std::memory_order_seq_cst);
      }
    }
    if (i % 7 == 0 && dq.Pop(&v)) {
      seen[v].fetch_add(1, std::memory_order_seq_cst);
      consumed.fetch_add(1, std::memory_order_seq_cst);
    }
  }
  while (dq.Pop(&v)) {
    seen[v].fetch_add(1, std::memory_order_seq_cst);
    consumed.fetch_add(1, std::memory_order_seq_cst);
  }
  done_pushing.store(true, std::memory_order_seq_cst);
  for (std::thread& t : thieves) t.join();

  EXPECT_EQ(kValues, consumed.load());
  for (std::uint32_t i = 0; i < kValues; ++i) {
    EXPECT_EQ(1u, seen[i].load()) << "value " << i;
  }
}

// ---------------------------------------------------------------------------
// JobSystem

TEST(JobSystem, SynchronousModeRunsInline) {
  JobSystem::Options options;
  options.workers = 0;
  JobSystem jobs(options);
  int runs = 0;
  const JobSystem::JobHandle h = jobs.Submit(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &runs);
  // Inline mode: already finished when Submit returns.
  EXPECT_EQ(1, runs);
  EXPECT_TRUE(jobs.Done(h));
  jobs.WaitIdle();
  EXPECT_EQ(0u, jobs.InFlight());
}

TEST(JobSystem, ManyJobsAllExecuteOnWorkers) {
  JobSystem::Options options;
  options.workers = 4;
  JobSystem jobs(options);
  std::atomic<int> runs{0};
  for (int i = 0; i < 2000; ++i) {
    jobs.Submit(
        [](void* ctx) {
          static_cast<std::atomic<int>*>(ctx)->fetch_add(
              1, std::memory_order_seq_cst);
        },
        &runs);
  }
  jobs.WaitIdle();
  EXPECT_EQ(2000, runs.load());
}

// Done/Wait on a handle whose job can no longer be running: the default
// handle, and a handle whose slot was recycled for a newer job (the
// generations differ). DecodeSessionFiles waits on every handle it
// submitted, some long finished, and relies on both returning at once.
TEST(JobSystem, DefaultAndRecycledHandlesReadDone) {
  JobSystem::Options options;
  options.workers = 1;
  options.max_jobs = 1;  // every job reuses slot 0
  JobSystem jobs(options);
  EXPECT_TRUE(jobs.Done(JobSystem::JobHandle{}));
  jobs.Wait(JobSystem::JobHandle{});

  std::atomic<int> runs{0};
  const JobSystem::JobHandle first = jobs.Submit(
      [](void* ctx) {
        static_cast<std::atomic<int>*>(ctx)->fetch_add(
            1, std::memory_order_seq_cst);
      },
      &runs);
  jobs.Wait(first);
  EXPECT_TRUE(jobs.Done(first));
  EXPECT_EQ(1, runs.load());
  // Done flips before the slot returns to the free list; WaitIdle waits
  // for the release too.
  jobs.WaitIdle();

  // The second job takes the first one's slot and blocks until released,
  // so the slot is live under a newer generation while `first` is read.
  std::atomic<bool> release{false};
  const JobSystem::JobHandle second = jobs.Submit(
      [](void* ctx) {
        auto* flag = static_cast<std::atomic<bool>*>(ctx);
        while (!flag->load(std::memory_order_seq_cst)) {
          std::this_thread::yield();
        }
      },
      &release);
  EXPECT_EQ(first.index, second.index);
  EXPECT_NE(first.generation, second.generation);
  EXPECT_TRUE(jobs.Done(first));
  jobs.Wait(first);  // returns although slot 0 holds an unfinished job
  EXPECT_FALSE(jobs.Done(second));
  EXPECT_EQ(1u, jobs.InFlight());
  release.store(true, std::memory_order_seq_cst);
  jobs.Wait(second);
  EXPECT_TRUE(jobs.Done(second));
  jobs.WaitIdle();
  EXPECT_EQ(0u, jobs.InFlight());
}

// ---------------------------------------------------------------------------
// JobSystem idle protocol: an idle worker spins on the work counter for a
// bounded budget (50 us, job_system.cc) and then parks; submitters wake a
// parked worker only through the sleeper count. These tests drive both
// paths. They assert what ran, never how long anything took.

void CountRun(void* ctx) {
  static_cast<std::atomic<int>*>(ctx)->fetch_add(1,
                                                 std::memory_order_seq_cst);
}

void BusyWaitMicros(int micros) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Blocks until `count` workers have committed to parking since the last
// telemetry reset (telemetry must be enabled).
void AwaitParked(std::uint64_t count) {
  while (TelemetryCounterValue("serve.workers.parked") < count) {
    std::this_thread::yield();
  }
}

struct CountedRun {
  std::atomic<int> runs{0};
  std::atomic<int>* total = nullptr;
};

void CountRunAndTotal(void* ctx) {
  auto* run = static_cast<CountedRun*>(ctx);
  run->runs.fetch_add(1, std::memory_order_seq_cst);
  run->total->fetch_add(1, std::memory_order_seq_cst);
}

// An external thread submits single jobs with gaps of 0, about half the
// spin budget, and about twice it: back-to-back jobs meet spinning or
// busy workers, the short gaps end spins, the long gaps let workers park
// so every submit races a park. The main thread then waits for the
// workers alone to run every job (WaitIdle would run stranded jobs
// itself): a lost wakeup strands a job and hangs the test. A double
// hand-out would run a job twice.
TEST(JobSystemIdle, SingleJobsAtSpinAndParkGapsRunExactlyOnce) {
  constexpr int kJobs = 200;
  for (int workers : {2, 4}) {
    for (int gap_us : {0, 25, 100}) {
      JobSystem::Options options;
      options.workers = workers;
      options.max_jobs = kJobs;
      JobSystem jobs(options);
      std::atomic<int> total{0};
      std::vector<CountedRun> runs(kJobs);
      for (CountedRun& run : runs) run.total = &total;
      std::thread submitter([&] {
        for (CountedRun& run : runs) {
          jobs.Submit(&CountRunAndTotal, &run);
          BusyWaitMicros(gap_us);
        }
      });
      submitter.join();
      while (total.load(std::memory_order_seq_cst) < kJobs) {
        std::this_thread::yield();
      }
      jobs.WaitIdle();
      EXPECT_EQ(0u, jobs.InFlight());
      EXPECT_EQ(kJobs, total.load());
      for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(1, runs[static_cast<std::size_t>(i)].runs.load())
            << workers << " workers, gap " << gap_us << " us, job " << i;
      }
    }
  }
}

// Destroying a job system must end its workers' spin (right after the
// last job) as well as their park (once the budget ran out).
TEST(JobSystemIdle, ShutdownEndsSpinAndPark) {
  for (int round = 0; round < 20; ++round) {
    JobSystem::Options options;
    options.workers = 2;
    JobSystem jobs(options);
    std::atomic<int> runs{0};
    jobs.Submit(&CountRun, &runs);
    jobs.WaitIdle();
    EXPECT_EQ(1, runs.load());
  }  // destroyed while the workers spin
  Telemetry::Enable()->Reset();
  {
    JobSystem::Options options;
    options.workers = 2;
    JobSystem jobs(options);
    std::atomic<int> runs{0};
    jobs.Submit(&CountRun, &runs);
    jobs.WaitIdle();
    AwaitParked(2);
    EXPECT_EQ(1, runs.load());
  }  // destroyed while both workers park
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

struct StealProbe {
  JobSystem* jobs = nullptr;
  std::atomic<bool> child_ran{false};
};

// A job pushed onto a worker's own deque must still run when that worker
// stays busy: a parked sibling is woken and steals it. The parent job
// blocks until its child ran, so only a steal can run the child, and the
// main thread does not help (WaitIdle would steal) until it has.
TEST(JobSystemIdle, OwnDequeJobIsStolenByParkedSibling) {
  Telemetry::Enable()->Reset();
  {
    JobSystem::Options options;
    options.workers = 2;
    JobSystem jobs(options);
    AwaitParked(2);
    StealProbe probe;
    probe.jobs = &jobs;
    jobs.Submit(
        [](void* ctx) {
          auto* p = static_cast<StealProbe*>(ctx);
          p->jobs->Submit(
              [](void* child) {
                static_cast<StealProbe*>(child)->child_ran.store(
                    true, std::memory_order_seq_cst);
              },
              p);
          while (!p->child_ran.load(std::memory_order_seq_cst)) {
            std::this_thread::yield();
          }
        },
        &probe);
    while (!probe.child_ran.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    jobs.WaitIdle();
    EXPECT_GE(TelemetryCounterValue("serve.jobs.stolen"), 1u);
    EXPECT_EQ(0u, jobs.InFlight());
  }
  Telemetry::Enable()->Reset();
  Telemetry::Disable();
}

// ---------------------------------------------------------------------------
// Session registry

TEST(SessionRegistry, CreateFind) {
  SessionRegistry registry;
  ServeSessionOptions options;
  options.stream_id = 42;
  options.faction.model.input_dim = 4;
  options.faction.model.hidden_dims = {4};
  ServeSession* s = registry.Create(options);
  ASSERT_NE(nullptr, s);
  EXPECT_EQ(42u, s->stream_id());
  EXPECT_EQ(s, registry.Find(42));
  EXPECT_EQ(nullptr, registry.Find(7));
  EXPECT_EQ(1u, registry.size());
  EXPECT_EQ(std::vector<ServeSession*>{s}, registry.Sessions());
}

// ---------------------------------------------------------------------------
// Replay gate: bitwise-identical sessions at any worker count.

StreamingFactionConfig ReplayConfig(std::uint64_t seed) {
  StreamingFactionConfig config;
  config.model.input_dim = 6;
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

struct SessionOutput {
  std::vector<std::uint8_t> decisions;
  std::vector<std::uint64_t> param_bits;  // bitwise model parameters
  std::size_t queries = 0;
  std::size_t seen = 0;
  std::size_t pool = 0;

  bool operator==(const SessionOutput& o) const {
    return decisions == o.decisions && param_bits == o.param_bits &&
           queries == o.queries && seen == o.seen && pool == o.pool;
  }
};

std::vector<std::uint64_t> ParamBits(const StreamingFaction& faction) {
  std::vector<std::uint64_t> bits;
  for (const Matrix* m : faction.model().Parameters()) {
    const std::size_t n = m->rows() * m->cols();
    const std::size_t base = bits.size();
    bits.resize(base + n);
    static_assert(sizeof(double) == sizeof(std::uint64_t), "");
    std::memcpy(bits.data() + base, m->data(), n * sizeof(double));
  }
  return bits;
}

SessionOutput Capture(const StreamingFaction& faction,
                      const std::vector<std::uint8_t>& decisions) {
  SessionOutput out;
  out.decisions = decisions;
  out.param_bits = ParamBits(faction);
  out.queries = faction.queries_made();
  out.seen = faction.samples_seen();
  out.pool = faction.pool_size();
  return out;
}

constexpr std::size_t kReplaySessions = 64;
constexpr std::size_t kReplaySteps = 90;

// Reference: each stream folded into its own StreamingFaction alone.
std::vector<SessionOutput> RunStandalone() {
  std::vector<SessionOutput> outputs;
  outputs.reserve(kReplaySessions);
  for (std::size_t s = 0; s < kReplaySessions; ++s) {
    const StreamingFactionConfig config = ReplayConfig(100 + s);
    StreamingFaction faction(config);
    const std::vector<Example> stream =
        MakeStream(kReplaySteps, config.model.input_dim, 1000 + s);
    std::vector<std::uint8_t> decisions;
    decisions.reserve(kReplaySteps);
    for (const Example& ex : stream) {
      const bool query = faction.ShouldQuery(ex).value();
      if (query) {
        EXPECT_TRUE(faction.ProvideLabel(ex).ok());
      }
      decisions.push_back(query ? 1 : 0);
    }
    outputs.push_back(Capture(faction, decisions));
  }
  return outputs;
}

std::vector<SessionOutput> RunServed(int workers) {
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = workers;
  runtime_options.max_sessions = kReplaySessions;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);

  std::vector<ServeSession*> sessions;
  std::vector<std::vector<Example>> streams;
  sessions.reserve(kReplaySessions);
  streams.reserve(kReplaySessions);
  for (std::size_t s = 0; s < kReplaySessions; ++s) {
    ServeSessionOptions options;
    options.stream_id = s;
    options.faction = ReplayConfig(100 + s);
    // Large enough that the replay never sheds (shedding would change
    // the stream a session observes).
    options.mailbox_capacity = kReplaySteps;
    options.decision_log_capacity = kReplaySteps;
    sessions.push_back(runtime.CreateSession(options));
    streams.push_back(
        MakeStream(kReplaySteps, options.faction.model.input_dim,
                   1000 + s));
  }

  // Round-robin across sessions: maximally interleaved arrival order.
  for (std::size_t i = 0; i < kReplaySteps; ++i) {
    for (std::size_t s = 0; s < kReplaySessions; ++s) {
      EXPECT_TRUE(runtime.Offer(sessions[s], streams[s][i]));
    }
  }
  runtime.Drain();

  std::vector<SessionOutput> outputs;
  outputs.reserve(kReplaySessions);
  for (std::size_t s = 0; s < kReplaySessions; ++s) {
    EXPECT_TRUE(sessions[s]->MailboxEmpty());
    EXPECT_EQ(0u, sessions[s]->shed());
    EXPECT_EQ(kReplaySteps, sessions[s]->steps());
    outputs.push_back(
        Capture(sessions[s]->faction(), sessions[s]->decisions()));
  }
  return outputs;
}

TEST(ServeReplay, BitwiseIdenticalAcrossWorkerCounts) {
  const std::vector<SessionOutput> standalone = RunStandalone();
  const std::vector<SessionOutput> served1 = RunServed(1);
  const std::vector<SessionOutput> served8 = RunServed(8);
  ASSERT_EQ(kReplaySessions, standalone.size());
  ASSERT_EQ(kReplaySessions, served1.size());
  ASSERT_EQ(kReplaySessions, served8.size());
  for (std::size_t s = 0; s < kReplaySessions; ++s) {
    EXPECT_TRUE(standalone[s] == served1[s]) << "session " << s;
    EXPECT_TRUE(standalone[s] == served8[s]) << "session " << s;
    EXPECT_FALSE(standalone[s].param_bits.empty());
    EXPECT_EQ(kReplaySteps, standalone[s].decisions.size());
  }
}

// Synchronous mode (workers == 0) is the determinism reference the
// allocation-audit gate runs in; it must match too.
TEST(ServeReplay, SynchronousModeMatchesStandalone) {
  const std::vector<SessionOutput> standalone = RunStandalone();
  const std::vector<SessionOutput> sync = RunServed(0);
  for (std::size_t s = 0; s < kReplaySessions; ++s) {
    EXPECT_TRUE(standalone[s] == sync[s]) << "session " << s;
  }
}

// A refit whose training diverges returns a NumericalError after
// restoring the weights it started from. The session counts the failure
// and keeps serving the restored model instead of aborting the process.
TEST(ServeSessionTest, DivergedRefitIsCountedAndServingContinues) {
  Telemetry::Enable()->Reset();
  ServeRuntimeOptions runtime_options;
  runtime_options.workers = 0;
  runtime_options.max_sessions = 1;
  runtime_options.record_latency = false;
  ServeRuntime runtime(runtime_options);
  ServeSessionOptions options;
  options.stream_id = 0;
  options.faction = ReplayConfig(5);
  options.faction.train.learning_rate = 1e300;
  options.mailbox_capacity = kReplaySteps;
  options.decision_log_capacity = kReplaySteps;
  ServeSession* session = runtime.CreateSession(options);
  const std::vector<Example> stream =
      MakeStream(kReplaySteps, options.faction.model.input_dim, 77);
  for (const Example& ex : stream) {
    EXPECT_TRUE(runtime.Offer(session, ex));
  }
  runtime.Drain();
  EXPECT_EQ(kReplaySteps, session->steps());
  EXPECT_EQ(kReplaySteps, session->decisions().size());
  EXPECT_GT(TelemetryCounterValue("serve.refit_failures"), 0u);
  // Every refit failed, so the session still serves its initial weights.
  const StreamingFaction fresh(options.faction);
  EXPECT_EQ(ParamBits(fresh), ParamBits(session->faction()));
  Telemetry::Get()->Reset();
  Telemetry::Disable();
}

}  // namespace
}  // namespace faction
