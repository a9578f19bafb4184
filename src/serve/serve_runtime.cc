// FACTION_HOT: Offer/Schedule/DrainJob run once per served arrival.
// Construction and session registration sit inside FACTION_COLD fences.
#include "serve/serve_runtime.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"

namespace faction {

// FACTION_COLD_BEGIN: runtime construction and session registration.
ServeRuntime::ServeRuntime(const ServeRuntimeOptions& options)
    : options_(options), jobs_([&] {
        JobSystem::Options jobs;
        jobs.workers = options.workers;
        // One in-flight drain plus one reschedule per session, plus up to
        // two queued checkpoint-serializer jobs (one per snapshot buffer),
        // with slack for the transient overlaps.
        jobs.max_jobs = std::max<std::size_t>(options.max_sessions, 1) * 4 + 16;
        jobs.deque_capacity =
            std::max<std::size_t>(options.max_sessions, 1);
        return jobs;
      }()) {}

ServeSession* ServeRuntime::CreateSession(ServeSessionOptions options) {
  FACTION_CHECK(registry_.size() < options_.max_sessions);
  if (options.mailbox_capacity == 0) {
    options.mailbox_capacity = options_.mailbox_capacity;
  }
  ServeSession* session = registry_.Create(options);
  session->set_runtime(this);
  if (checkpoints_) {
    session->set_checkpoint_slot(checkpoints_->Attach(session));
  }
  return session;
}

CheckpointManager* ServeRuntime::EnableCheckpoints(
    const CheckpointOptions& options) {
  FACTION_CHECK(checkpoints_ == nullptr);
  checkpoints_ = std::make_unique<CheckpointManager>(options, &jobs_);
  for (ServeSession* session : registry_.Sessions()) {
    session->set_checkpoint_slot(checkpoints_->Attach(session));
  }
  return checkpoints_.get();
}

Result<WarmStartReport> ServeRuntime::WarmStart(
    const std::string& manifest_path, const WarmStartOptions& options) {
  FACTION_ASSIGN_OR_RETURN(std::vector<CheckpointManifestEntry> entries,
                           CheckpointManager::ReadManifest(manifest_path));
  const std::size_t slash = manifest_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".")
                                 : manifest_path.substr(0, slash);
  if (entries.size() > options_.max_sessions -
                           std::min(options_.max_sessions, registry_.size())) {
    return Status::ResourceExhausted(
        "WarmStart: " + manifest_path + " lists " +
        std::to_string(entries.size()) + " sessions, more than the runtime "
        "has room for");
  }
  // Decode every checkpoint on the job system, then create and restore
  // the sessions in manifest order: the first failure in that order wins,
  // exactly as if each entry were decoded just before its session.
  std::vector<std::string> paths;
  paths.reserve(entries.size());
  for (const CheckpointManifestEntry& entry : entries) {
    paths.push_back(dir + "/" + entry.filename);
  }
  std::vector<DecodedSession> decoded = DecodeSessionFiles(paths, &jobs_);
  WarmStartReport report;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CheckpointManifestEntry& entry = entries[i];
    if (registry_.Find(entry.stream_id) != nullptr) {
      return Status::InvalidArgument(
          "WarmStart: " + manifest_path + " lists stream id " +
          std::to_string(entry.stream_id) + " that is already served");
    }
    FACTION_RETURN_IF_ERROR(decoded[i].status);
    const SessionState& state = decoded[i].state;
    if (state.stream_id != entry.stream_id) {
      return Status::InvalidArgument(
          "WarmStart: checkpoint " + entry.filename +
          " does not belong to the manifest's stream id");
    }
    ServeSessionOptions session_options;
    session_options.stream_id = state.stream_id;
    session_options.faction = state.config;
    session_options.mailbox_capacity = options.mailbox_capacity;
    session_options.decision_log_capacity = options.decision_log_capacity;
    ServeSession* session = CreateSession(session_options);
    FACTION_RETURN_IF_ERROR(
        RestoreSessionState(state, session->mutable_faction()));
    session->set_restored_steps(state.steps);
    if (CheckpointSlot* slot = session->checkpoint_slot()) {
      // Resume the generation sequence where the checkpointed session
      // left off, so rotation and the manifest stay monotone.
      slot->next_generation = state.generation + 1;
      slot->last_snapshot_steps = state.steps;
    }
    ++report.sessions;
    report.max_generation = std::max(report.max_generation, state.generation);
    report.total_steps += state.steps;
    decoded[i] = DecodedSession();  // the session holds its own copy now
  }
  return report;
}
// FACTION_COLD_END

void ServeRuntime::DrainJob(void* ctx) {
  auto* session = static_cast<ServeSession*>(ctx);
  ServeRuntime* runtime = session->runtime();
  session->Drain(runtime->options_.record_latency ? &runtime->clock_
                                                  : nullptr);
  // Snapshot while still holding the schedule: the capture reads learner
  // state, and the holder is the only writer. Interval-gated and
  // double-buffered, so this flips a pre-sized buffer (or skips) — it
  // never serializes or touches a file on this thread.
  if (runtime->checkpoints_) runtime->checkpoints_->MaybeSnapshot(session);
  if (session->FinishSchedule()) {
    // Arrivals raced in after the final drain pass and we re-took the
    // schedule; requeue rather than loop inline so one hot session cannot
    // monopolize a worker.
    runtime->Schedule(session);
  }
}

void ServeRuntime::Schedule(ServeSession* session) {
  jobs_.Submit(&ServeRuntime::DrainJob, session);
}

bool ServeRuntime::Offer(ServeSession* session, const Example& example) {
  FACTION_CHECK(session != nullptr && session->runtime() == this);
  const double enqueue_seconds =
      options_.record_latency ? clock_.ElapsedSeconds() : -1.0;
  if (!session->Push(example, enqueue_seconds)) return false;
  TelemetryCount("serve.arrivals.offered", 1);
  // Won the idle->scheduled CAS: exactly one drain job owns the session
  // until FinishSchedule releases it. Lost it: the current holder's
  // FinishSchedule re-check is ordered after our Push and picks the
  // arrival up.
  if (session->BeginSchedule()) Schedule(session);
  return true;
}

void ServeRuntime::Drain() { jobs_.WaitIdle(); }

}  // namespace faction
