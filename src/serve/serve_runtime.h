#ifndef FACTION_SERVE_SERVE_RUNTIME_H_
#define FACTION_SERVE_SERVE_RUNTIME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/timer.h"
#include "serve/checkpoint.h"
#include "serve/job_system.h"
#include "serve/session.h"
#include "serve/session_registry.h"

// Multi-stream serve loop (DESIGN.md §14): a SessionRegistry of
// independent per-cohort learners multiplexed over a work-stealing
// JobSystem. Per-session ordering guarantee: at most one drain job per
// session holds its schedule at a time, and the mailbox preserves arrival
// order, so every session's outputs are bitwise identical to running that
// session alone — for any worker count and any cross-session
// interleaving (enforced by tests/serve_test.cc).

namespace faction {

struct ServeRuntimeOptions {
  /// Worker threads for the job system; 0 = synchronous inline execution
  /// on the offering thread (the determinism reference and the mode the
  /// allocation-audit gate runs in).
  int workers = 1;
  /// Upper bound on concurrently registered sessions; sizes the job arena
  /// (each session keeps at most one drain job in flight, plus one
  /// immediate reschedule).
  std::size_t max_sessions = 4096;
  /// Default mailbox capacity for CreateSession.
  std::size_t mailbox_capacity = 64;
  /// When true, Offer observes per-arrival step latency into the
  /// "serve.step.latency_seconds" telemetry histogram (needs telemetry
  /// enabled to have any effect).
  bool record_latency = true;
};

/// Owns the job system, the session registry, and the serve clock.
class ServeRuntime {
 public:
  // FACTION_COLD_BEGIN: constructor spawns workers and pre-sizes the job
  // arena (2x max_sessions: one in-flight drain plus one reschedule per
  // session).
  explicit ServeRuntime(const ServeRuntimeOptions& options);
  // FACTION_COLD_END

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// Registers a new session (cold path). `options.mailbox_capacity`
  /// defaults from the runtime options when left at 0.
  ServeSession* CreateSession(ServeSessionOptions options);

  /// Hands one arrival to a session: mailbox push + drain-job scheduling.
  /// False when the mailbox was full (arrival shed, learner untouched).
  /// At most one Offer per session may run concurrently (SPSC mailbox);
  /// Offers to distinct sessions are free to race.
  bool Offer(ServeSession* session, const Example& example);

  /// Blocks until every scheduled drain (and every drain it reschedules)
  /// has finished. Quiescent once no producer is offering concurrently.
  void Drain();

  /// Enables background checkpointing (cold; call before serving starts).
  /// Every current and future session gets a checkpoint slot; drain
  /// holders snapshot eligible sessions off the hot path and serializer
  /// jobs stream them to `options.dir`. Returns the manager (owned by the
  /// runtime) for Flush/inspection.
  CheckpointManager* EnableCheckpoints(const CheckpointOptions& options);
  CheckpointManager* checkpoints() { return checkpoints_.get(); }

  /// Rebuilds the session registry from a checkpoint manifest: one session
  /// per manifest entry, constructed from its checkpointed config and
  /// restored to bitwise parity with the captured learner (no replay).
  /// When checkpointing is enabled, restored sessions resume their
  /// generation sequence. Call on a freshly constructed runtime before any
  /// Offer. A manifest listing more sessions than the runtime has room
  /// for (ResourceExhausted), a stream id already served, or any checkpoint
  /// that fails to decode or restore stops the warm start with its Status.
  /// The checkpoints decode in parallel on the job system, but sessions
  /// are created and restored in manifest order: the first failing entry
  /// in that order is the one reported, and exactly the entries before it
  /// are served, at any worker count.
  Result<WarmStartReport> WarmStart(const std::string& manifest_path,
                                    const WarmStartOptions& options = {});

  SessionRegistry& registry() { return registry_; }
  const SessionRegistry& registry() const { return registry_; }
  int workers() const { return jobs_.workers(); }
  /// Seconds since runtime construction on the serve clock.
  double NowSeconds() const { return clock_.ElapsedSeconds(); }

 private:
  /// Job body: drain the session, then keep rescheduling while
  /// FinishSchedule re-takes the schedule (arrivals raced in).
  static void DrainJob(void* ctx);

  void Schedule(ServeSession* session);

  ServeRuntimeOptions options_;
  Timer clock_;
  SessionRegistry registry_;
  JobSystem jobs_;
  /// Background checkpointing; null until EnableCheckpoints. Destroyed
  /// before jobs_ (member order), flushing serializer jobs first.
  std::unique_ptr<CheckpointManager> checkpoints_;
};

}  // namespace faction

#endif  // FACTION_SERVE_SERVE_RUNTIME_H_
