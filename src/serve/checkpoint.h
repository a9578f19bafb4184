#ifndef FACTION_SERVE_CHECKPOINT_H_
#define FACTION_SERVE_CHECKPOINT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/state_codec.h"

// Background checkpoint/state streaming (DESIGN.md §17). The drain holder
// flips a pre-sized double-buffered SessionState between drains (hot,
// allocation-free once warm, never blocks on I/O); a low-priority job on
// the serve runtime's work-stealing JobSystem serializes the flipped
// buffer to the hexfloat session format and tmp+rename-rotates it into a
// per-session checkpoint file under a generation-counting manifest. When
// both buffers of a session are still in the hands of serializer jobs the
// snapshot is skipped (telemetry-counted) — checkpointing must never stall
// Offer/Drain.

namespace faction {

class JobSystem;
class ServeSession;
class CheckpointManager;

struct CheckpointOptions {
  /// Directory receiving per-session checkpoint files and the manifest.
  /// Must exist; files are named "session-<id>.gen<G>.ckpt".
  std::string dir;
  /// A session becomes snapshot-eligible every `interval_steps` drained
  /// arrivals (steps-based on purpose: wall-clock would break determinism
  /// audits). The eligible snapshot is taken by the next drain holder.
  std::size_t interval_steps = 64;
  /// Checkpoint generations retained per session; older files are removed
  /// after the manifest advances past them. Minimum 1.
  std::size_t keep_generations = 2;
};

/// One snapshot buffer: the captured state, the encoded bytes, and the
/// handoff latch between the capturing drain holder and the serializer
/// job. `state`/`encoded` retain capacity across generations, so a warm
/// capture allocates nothing.
struct CheckpointBuffer {
  enum : int { kFree = 0, kQueued = 1 };

  SessionState state;
  std::string encoded;
  /// kFree: owned by the next capturing drain holder. kQueued: owned by a
  /// serializer job (capture must skip it).
  std::atomic<int> status{kFree};
  CheckpointManager* manager = nullptr;
};

/// Per-session checkpoint state, owned by the manager and pointed to by
/// the session. Mutated only by the session's current drain holder (the
/// serve layer guarantees at most one), except `buffers[i].status`, which
/// the serializer job flips back to kFree.
struct CheckpointSlot {
  ServeSession* session = nullptr;
  std::uint64_t next_generation = 1;
  /// Step count at the last MaybeSnapshot trigger. Attach seeds it with a
  /// per-slot phase offset in [0, interval) so same-aged sessions do not
  /// serialize in lockstep bursts; the first attached slot keeps offset 0.
  std::uint64_t last_snapshot_steps = 0;
  CheckpointBuffer buffers[2];
};

/// One line of the checkpoint manifest: the latest durably committed
/// generation per session.
struct CheckpointManifestEntry {
  std::uint64_t stream_id = 0;
  std::uint64_t generation = 0;
  std::uint64_t steps = 0;
  std::string filename;
};

/// Owns every session's checkpoint slots and the manifest. Thread
/// contract: Attach is cold (registration path, mutex-guarded);
/// MaybeSnapshot/SnapshotNow are called by drain holders (at most one per
/// session); serializer jobs run on the shared JobSystem and only touch
/// their own buffer plus the mutex-guarded manifest.
class CheckpointManager {
 public:
  CheckpointManager(const CheckpointOptions& options, JobSystem* jobs);

  /// Flushes outstanding serializer work (via the job system) before
  /// tearing down the slots they reference.
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Registers a session (cold). Returns its slot; the caller stores it on
  /// the session so the hot path needs no lookup.
  CheckpointSlot* Attach(ServeSession* session);

  /// Hot path, drain holder only: captures a snapshot when the session has
  /// advanced `interval_steps` past the last one and a buffer is free.
  /// Returns true when a snapshot was captured and queued. Never blocks on
  /// I/O or the serializer; a busy double-buffer pair skips (counted on
  /// "serve.checkpoint.skipped_busy").
  bool MaybeSnapshot(ServeSession* session);

  /// Drain holder only: captures regardless of the interval (still skips
  /// when both buffers are busy).
  bool SnapshotNow(ServeSession* session);

  /// Blocks until every queued serializer job has finished (runs the whole
  /// job system idle — acceptable for shutdown/tests).
  void Flush();

  const CheckpointOptions& options() const { return options_; }
  std::string ManifestPath() const;

  /// Serialization failures since construction (I/O errors are counted and
  /// logged, never fatal: the previous durable generation stays valid).
  std::uint64_t failures() const {
    return failures_.load(std::memory_order_seq_cst);
  }

  /// Reads a manifest file ("faction-manifest v1"). Errors name the path.
  /// An entry's filename must be the "session-<id>.gen<G>.ckpt" its own id
  /// and generation name.
  static Result<std::vector<CheckpointManifestEntry>> ReadManifest(
      const std::string& path);

 private:
  static void SerializeJob(void* ctx);
  void Serialize(CheckpointBuffer* buffer);
  /// Advances the in-memory manifest (newer generations only) and durably
  /// rewrites the manifest file. Returns the generation this session's
  /// entry replaced (0 when none).
  Status CommitManifest(const SessionState& state,
                        const std::string& filename);

  CheckpointOptions options_;
  JobSystem* jobs_;

  std::mutex slots_mu_;
  std::vector<std::unique_ptr<CheckpointSlot>> slots_;

  std::mutex manifest_mu_;
  std::map<std::uint64_t, CheckpointManifestEntry> manifest_;

  std::atomic<std::uint64_t> failures_{0};
};

/// Warm-start configuration: how ServeRuntime::WarmStart builds the
/// restored sessions (0 = the runtime's defaults).
struct WarmStartOptions {
  std::size_t mailbox_capacity = 0;
  std::size_t decision_log_capacity = 0;
};

struct WarmStartReport {
  std::size_t sessions = 0;
  std::uint64_t max_generation = 0;
  /// Sum of the restored sessions' checkpointed step counts — the arrivals
  /// a replay-based recovery would have had to re-process.
  std::uint64_t total_steps = 0;
};

/// One checkpoint file read back by DecodeSessionFiles.
struct DecodedSession {
  SessionState state;
  Status status;
};

/// Decodes every file in `paths` into the matching result entry: one job
/// per file on `jobs` when given (inline otherwise). Every file is read
/// even after a failure, so callers that walk the results in path order
/// report the same first failure whatever the job timing.
std::vector<DecodedSession> DecodeSessionFiles(
    const std::vector<std::string>& paths, JobSystem* jobs);

}  // namespace faction

#endif  // FACTION_SERVE_CHECKPOINT_H_
