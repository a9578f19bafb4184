// FACTION_HOT: MaybeSnapshot/SnapshotNow run on the drain path (the holder
// flips a snapshot buffer between drains). Serialization, manifest I/O,
// and the warm-start decode are background-job / warm-start cold paths
// inside FACTION_COLD fences.
#include "serve/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fsio.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "serve/job_system.h"
#include "serve/session.h"

namespace faction {

// FACTION_COLD_BEGIN: construction, registration, teardown.
CheckpointManager::CheckpointManager(const CheckpointOptions& options,
                                    JobSystem* jobs)
    : options_(options), jobs_(jobs) {
  FACTION_CHECK(jobs_ != nullptr);
  FACTION_CHECK(!options_.dir.empty());
  options_.keep_generations = std::max<std::size_t>(
      options_.keep_generations, 1);
  if (options_.interval_steps == 0) options_.interval_steps = 1;
}

CheckpointManager::~CheckpointManager() { Flush(); }

CheckpointSlot* CheckpointManager::Attach(ServeSession* session) {
  FACTION_CHECK(session != nullptr);
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(std::make_unique<CheckpointSlot>());
  CheckpointSlot* slot = slots_.back().get();
  slot->session = session;
  slot->buffers[0].manager = this;
  slot->buffers[1].manager = this;
  // De-synchronize the periodic snapshots: same-aged sessions would
  // otherwise all cross the interval boundary together and flood the job
  // system with a burst of serialize jobs (a latency herd on the drain
  // workers). A multiplicative hash of the attach order spreads the
  // first-snapshot phase across the interval; each session keeps its
  // phase afterwards because last_snapshot_steps advances by whole
  // intervals. The first slot keeps offset zero.
  slot->last_snapshot_steps =
      ((slots_.size() - 1) * 2654435761ull) % options_.interval_steps;
  return slot;
}

void CheckpointManager::Flush() { jobs_->WaitIdle(); }

std::string CheckpointManager::ManifestPath() const {
  return options_.dir + "/manifest";
}
// FACTION_COLD_END

bool CheckpointManager::MaybeSnapshot(ServeSession* session) {
  CheckpointSlot* slot = session->checkpoint_slot();
  if (slot == nullptr) return false;
  const std::size_t steps = session->steps();
  if (steps < slot->last_snapshot_steps + options_.interval_steps) {
    return false;
  }
  return SnapshotNow(session);
}

bool CheckpointManager::SnapshotNow(ServeSession* session) {
  CheckpointSlot* slot = session->checkpoint_slot();
  if (slot == nullptr) return false;
  // Double buffer: one may still be in a serializer job's hands while the
  // other captures the next generation. Both busy means the serializer is
  // behind — skip rather than stall the drain path.
  CheckpointBuffer* buffer = nullptr;
  for (CheckpointBuffer& candidate : slot->buffers) {
    if (candidate.status.load(std::memory_order_seq_cst) ==
        CheckpointBuffer::kFree) {
      buffer = &candidate;
      break;
    }
  }
  if (buffer == nullptr) {
    TelemetryCount("serve.checkpoint.skipped_busy", 1);
    return false;
  }
  CaptureSessionState(session->faction(), &buffer->state);
  buffer->state.stream_id = session->stream_id();
  buffer->state.generation = slot->next_generation++;
  buffer->state.steps = session->steps();
  slot->last_snapshot_steps = buffer->state.steps;
  // Publish to the serializer job *before* submitting: the job may start
  // on another worker immediately.
  buffer->status.store(CheckpointBuffer::kQueued, std::memory_order_seq_cst);
  TelemetryCount("serve.checkpoint.captured", 1);
  jobs_->Submit(&CheckpointManager::SerializeJob, buffer);
  return true;
}

// FACTION_COLD_BEGIN: serializer job, manifest I/O, warm-start helpers —
// background cadence, never on the drain path.
namespace {

std::string CheckpointFileName(std::uint64_t stream_id,
                               std::uint64_t generation) {
  return "session-" + std::to_string(stream_id) + ".gen" +
         std::to_string(generation) + ".ckpt";
}

/// Writes `bytes` to "<path>.tmp" and durably renames it over `path`; a
/// failed write removes the tmp file and leaves `path` untouched.
Status WriteFileDurable(const std::string& path, const std::string& bytes) {
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::trunc);
    if (!os.is_open()) {
      return Status::Internal("checkpoint: cannot open " + tmp_path);
    }
    os << bytes;
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp_path.c_str());
      return Status::Internal("checkpoint: write failed for " + tmp_path);
    }
  }
  return CommitFileDurable(tmp_path, path);
}

}  // namespace

void CheckpointManager::SerializeJob(void* ctx) {
  auto* buffer = static_cast<CheckpointBuffer*>(ctx);
  buffer->manager->Serialize(buffer);
}

void CheckpointManager::Serialize(CheckpointBuffer* buffer) {
  const SessionState& state = buffer->state;
  const std::string filename =
      CheckpointFileName(state.stream_id, state.generation);
  Status status = [&]() -> Status {
    // A state the decoder would reject (a NaN weight after a diverged
    // refit, say) is never committed: the manifest stays on the previous
    // generation, which WarmStart can still read.
    FACTION_RETURN_IF_ERROR(EncodeSessionState(state, &buffer->encoded));
    FACTION_RETURN_IF_ERROR(
        WriteFileDurable(options_.dir + "/" + filename, buffer->encoded));
    return CommitManifest(state, filename);
  }();
  if (status.ok()) {
    TelemetryCount("serve.checkpoint.serialized", 1);
    // Rotate: the manifest has durably advanced to `generation`, so the
    // generation that fell out of the retention window is dead weight.
    if (state.generation > options_.keep_generations) {
      const std::uint64_t dead = state.generation - options_.keep_generations;
      const std::string dead_path =
          options_.dir + "/" + CheckpointFileName(state.stream_id, dead);
      std::remove(dead_path.c_str());
    }
  } else {
    // Never fatal: the previous durable generation stays valid and the
    // next interval retries with fresh state.
    failures_.fetch_add(1, std::memory_order_seq_cst);
    TelemetryCount("serve.checkpoint.errors", 1);
    FACTION_LOG(kWarning) << "checkpoint serialize failed: "
                          << status.ToString();
  }
  buffer->status.store(CheckpointBuffer::kFree, std::memory_order_seq_cst);
}

Status CheckpointManager::CommitManifest(const SessionState& state,
                                         const std::string& filename) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  CheckpointManifestEntry& entry = manifest_[state.stream_id];
  // Serializer jobs of one session can complete out of order (buffer A's
  // job may outlive buffer B's); the manifest only ever advances.
  if (entry.generation >= state.generation) return Status::Ok();
  entry.stream_id = state.stream_id;
  entry.generation = state.generation;
  entry.steps = state.steps;
  entry.filename = filename;

  std::ostringstream os;
  os << "faction-manifest v1\n" << "sessions " << manifest_.size() << '\n';
  for (const auto& [id, e] : manifest_) {
    os << id << ' ' << e.generation << ' ' << e.steps << ' ' << e.filename
       << '\n';
  }
  return WriteFileDurable(ManifestPath(), os.str());
}

Result<std::vector<CheckpointManifestEntry>> CheckpointManager::ReadManifest(
    const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    return Status::NotFound("ReadManifest: cannot open " + path);
  }
  std::string word1, word2;
  if (!(is >> word1 >> word2) || word1 != "faction-manifest" ||
      word2 != "v1") {
    return Status::InvalidArgument("ReadManifest: bad magic header in " +
                                   path);
  }
  std::size_t count = 0;
  if (!(is >> word1 >> count) || word1 != "sessions") {
    return Status::InvalidArgument("ReadManifest: bad session count in " +
                                   path);
  }
  // Entries are stored only once read, so a count the file does not back
  // allocates nothing.
  std::vector<CheckpointManifestEntry> entries;
  for (std::size_t i = 0; i < count; ++i) {
    CheckpointManifestEntry e;
    if (!(is >> e.stream_id >> e.generation >> e.steps >> e.filename)) {
      return Status::InvalidArgument("ReadManifest: truncated entry in " +
                                     path);
    }
    // The only name the manager ever writes; this also keeps an entry
    // from pointing outside the checkpoint directory.
    if (e.filename != CheckpointFileName(e.stream_id, e.generation)) {
      return Status::InvalidArgument("ReadManifest: entry for session " +
                                     std::to_string(e.stream_id) +
                                     " names file '" + e.filename + "' in " +
                                     path);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

namespace {

/// Context of one decode job in DecodeSessionFiles.
struct DecodeJob {
  const std::string* path = nullptr;
  DecodedSession* out = nullptr;
};

void RunDecodeJob(void* ctx) {
  auto* job = static_cast<DecodeJob*>(ctx);
  job->out->status = DecodeSessionStateFromFile(*job->path, &job->out->state);
}

}  // namespace

std::vector<DecodedSession> DecodeSessionFiles(
    const std::vector<std::string>& paths, JobSystem* jobs) {
  std::vector<DecodedSession> decoded(paths.size());
  std::vector<DecodeJob> contexts(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    contexts[i] = {&paths[i], &decoded[i]};
  }
  if (jobs != nullptr && paths.size() > 1) {
    std::vector<JobSystem::JobHandle> handles(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      handles[i] = jobs->Submit(&RunDecodeJob, &contexts[i]);
    }
    for (const JobSystem::JobHandle& handle : handles) jobs->Wait(handle);
  } else {
    for (DecodeJob& context : contexts) RunDecodeJob(&context);
  }
  return decoded;
}
// FACTION_COLD_END

}  // namespace faction
