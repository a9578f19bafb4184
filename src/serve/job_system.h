#ifndef FACTION_SERVE_JOB_SYSTEM_H_
#define FACTION_SERVE_JOB_SYSTEM_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

// Work-stealing job system for the multi-stream serving runtime
// (DESIGN.md §14).
//
// Layout: one persistent worker per configured slot, each owning a bounded
// LIFO deque of job indices. A worker drains its own deque bottom-first
// (cache-warm continuation of what it just produced), falls back to the
// shared injection queue (jobs submitted from non-worker threads), then
// steals oldest-first from sibling deques. A worker that finds nothing
// spins on a work counter for a bounded time, then parks on a condition
// variable until new work arrives; submitters touch the park lock only
// when a worker actually sleeps.
//
// Memory-ordering stance: every cross-thread atomic in this file uses
// seq_cst. The Chase-Lev deque is usually published with relaxed atomics
// plus standalone fences, but (a) standalone fences are invisible to
// ThreadSanitizer, which would report false races on the slot array, and
// (b) the correctness argument under sequential consistency is the classic
// textbook one with no fence subtleties. Jobs here are session steps —
// microseconds to milliseconds of work — so a handful of seq_cst
// operations per job is noise; determinism and a TSan-clean tree are worth
// far more than the saved fences.
//
// Allocation discipline: every job node lives in a pre-sized arena and
// every queue is a pre-sized ring, all built in the constructor. Submit,
// execution, completion, and recycling perform zero heap allocations,
// which keeps the whole scheduler legal inside the steady-state
// allocation ban (alloc_audit.h; gated by tests/alloc_audit_test.cc).

namespace faction {

/// Bounded lock-free work-stealing deque of job indices. The owner pushes
/// and pops at the bottom (LIFO); any other thread steals from the top
/// (FIFO). Capacity is rounded up to a power of two and never grows — a
/// full deque makes Push return false and the caller falls back to the
/// injection queue. All operations are lock-free and allocation-free.
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::size_t capacity);

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. False when the deque is full.
  bool Push(std::uint32_t value);

  /// Owner only; newest entry first. False when empty.
  bool Pop(std::uint32_t* value);

  /// Any thread; oldest entry first. False when empty or when it lost the
  /// race for the last entry (callers treat both as "nothing stolen").
  bool Steal(std::uint32_t* value);

  /// Approximate occupancy; exact when no concurrent operations run.
  // lint-allow(test-only-api): tests assert deque occupancy
  std::size_t SizeEstimate() const;

  std::size_t capacity() const { return mask_ + 1; }

 private:
  std::size_t mask_;
  std::vector<std::atomic<std::uint32_t>> slots_;
  // top_/bottom_ grow without bound; indices wrap via mask_. Separate cache
  // lines so steals do not false-share with owner pushes.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

/// Work-stealing job scheduler.
///
/// Jobs are plain function pointer + context (no std::function, so
/// submission never allocates) and runnable as soon as they are submitted;
/// per-session FIFO ordering in the serve layer is built on top of this
/// via session mailboxes (session.h), not by job priorities.
///
/// `workers == 0` selects synchronous mode: Submit runs the job inline on
/// the calling thread before returning. The serve determinism tests and
/// the allocation-audit gate use this mode as the single-threaded
/// reference execution.
class JobSystem {
 public:
  using JobFn = void (*)(void* ctx);

  /// Opaque ticket for Wait/Done. Valid until the job system is destroyed;
  /// a recycled slot is detected via the generation counter, so waiting on
  /// a long-finished job is safe and returns immediately.
  struct JobHandle {
    std::uint32_t index = UINT32_MAX;
    std::uint64_t generation = 0;
  };

  struct Options {
    /// Worker thread count; 0 = synchronous inline execution.
    int workers = 1;
    /// Job-node arena size: the maximum number of unfinished jobs alive at
    /// once. Submit FACTION_CHECKs against exhaustion (the serve runtime
    /// sizes this at sessions + slack, since a session keeps at most one
    /// job in flight).
    std::size_t max_jobs = 4096;
    /// Per-worker deque capacity (rounded up to a power of two). Overflow
    /// falls back to the shared injection queue, so this is a performance
    /// knob, not a correctness bound.
    std::size_t deque_capacity = 1024;
  };

  explicit JobSystem(const Options& options);
  ~JobSystem();

  JobSystem(const JobSystem&) = delete;
  JobSystem& operator=(const JobSystem&) = delete;

  /// Submits a job; it is runnable at once.
  JobHandle Submit(JobFn fn, void* ctx);

  /// True once the job has finished (or its slot was recycled, which
  /// implies it finished).
  bool Done(const JobHandle& handle) const;

  /// Blocks until the job finishes, executing other runnable jobs while it
  /// waits (so waiting from inside a job cannot starve the system).
  void Wait(const JobHandle& handle);

  /// Blocks until no submitted job remains unfinished, helping to execute
  /// runnable jobs while it waits.
  void WaitIdle();

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Unfinished jobs (runnable, queued, or executing) at this instant.
  // lint-allow(test-only-api): tests assert the scheduler drained
  std::size_t InFlight() const;

 private:
  struct Job {
    JobFn fn = nullptr;
    void* ctx = nullptr;
    /// Bumped at allocation; a handle whose generation disagrees refers to
    /// a finished, recycled job.
    std::atomic<std::uint64_t> generation{0};
    std::atomic<bool> done{false};
    std::uint32_t next_free = UINT32_MAX;
  };

  std::uint32_t Allocate(JobFn fn, void* ctx);
  void Release(std::uint32_t index);
  /// Makes a job runnable: own deque for workers, injection queue (plus
  /// wakeup) otherwise. Synchronous mode executes inline.
  void Enqueue(std::uint32_t index);
  void Execute(std::uint32_t index);
  /// Resolves one runnable job from the injection queue or by stealing.
  bool TryAcquire(std::uint32_t* index, int self);
  bool PopInjected(std::uint32_t* index);
  void WorkerMain(int worker_index);
  /// Spins until work_epoch_ leaves `epoch` (true) or the spin budget
  /// runs out (false). Takes no lock.
  bool SpinForWork(std::uint64_t epoch) const;
  void NotifyWork();

  Options options_;
  std::vector<Job> jobs_;
  // unique_ptr because the deque's atomics make it immovable, and vector
  // element construction requires movability.
  std::vector<std::unique_ptr<WorkStealingDeque>> deques_;  // one per worker
  std::vector<std::thread> workers_;

  // Free list of job nodes, spinlock-guarded (allocation is off the
  // per-arrival fast path: one job covers a whole mailbox drain).
  std::atomic_flag free_lock_;
  std::uint32_t free_head_ = UINT32_MAX;

  // Injection ring for jobs enqueued from non-worker threads (and deque
  // overflow). Mutex-guarded; capacity max_jobs so it can never overflow.
  mutable std::mutex inject_mu_;
  std::vector<std::uint32_t> inject_ring_;
  std::size_t inject_head_ = 0;  // pop side
  std::size_t inject_size_ = 0;

  std::atomic<std::int64_t> in_flight_{0};

  // Worker idle protocol (DESIGN.md §14). work_epoch_ is bumped after
  // every enqueue and at shutdown: an idle worker spins on it, and a
  // parked one waits for it to move. sleepers_ counts workers committed
  // to parking; NotifyWork reads it right after its bump (same cache
  // line) and skips park_mu_ and the condvar while it is zero.
  alignas(64) std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<int> sleepers_{0};
  alignas(64) std::atomic<bool> stop_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

  // Idle notification for WaitIdle; Execute takes idle_mu_ only while
  // idle_waiters_ is non-zero.
  std::atomic<int> idle_waiters_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace faction

#endif  // FACTION_SERVE_JOB_SYSTEM_H_
