// FACTION_HOT: Submit/Enqueue/Execute and the deque operations run on the
// serve steady-state path for every session step; they must not allocate.
// One-time construction (arena, deques, worker spawn) sits inside
// FACTION_COLD fences.
#include "serve/job_system.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace faction {

namespace {

// Identity of the current thread inside its owning JobSystem, set once in
// WorkerMain. Non-worker threads keep {nullptr, -1}.
thread_local JobSystem* tl_worker_system = nullptr;
thread_local int tl_worker_index = -1;

// How long an idle worker polls work_epoch_ before it parks. At the
// serve-fleet reference rate (40k arrivals/s over 2 workers) a worker's
// mean idle gap is about 50 us, so most drains then start without a
// futex wake, and an idle runtime stops burning CPU after 50 us. Chosen
// from a serve-fleet budget sweep over 0-200 us (CHANGES.md).
constexpr double kSpinBudgetSeconds = 50e-6;

// Cap on the exponential pause backoff between polls. The backoff spaces
// out reads of the counter's cache line, which every submit writes; the
// cap keeps the delay before a spinner notices new work to about a
// microsecond.
constexpr int kMaxSpinPauses = 16;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Minimal TTAS spinlock over std::atomic_flag. The critical sections here
// (free-list push/pop) are a handful of loads/stores, so spinning beats a
// mutex and keeps the lock allocation-free and usable under the
// steady-state allocation ban.
class SpinGuard {
 public:
  explicit SpinGuard(std::atomic_flag* flag) : flag_(flag) {
    while (flag_->test_and_set(std::memory_order_seq_cst)) CpuRelax();
  }
  ~SpinGuard() { flag_->clear(std::memory_order_seq_cst); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  std::atomic_flag* flag_;
};

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkStealingDeque
//
// Bounded Chase-Lev deque with every atomic at seq_cst (rationale in the
// header). top_ only ever increases; bottom_ is owner-private except for
// the loads in Steal/SizeEstimate. A slot at ring position i can only be
// overwritten by a Push at index b >= i + capacity, and Push refuses while
// b - t >= capacity, so no live entry is ever clobbered.
// ---------------------------------------------------------------------------

// FACTION_COLD_BEGIN: construction only.
WorkStealingDeque::WorkStealingDeque(std::size_t capacity)
    : mask_(RoundUpPow2(std::max<std::size_t>(capacity, 2)) - 1),
      slots_(mask_ + 1) {}
// FACTION_COLD_END

bool WorkStealingDeque::Push(std::uint32_t value) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  // A stale t only underestimates the free space (t never decreases), so
  // this check can reject spuriously but never admit past capacity.
  if (b - t >= static_cast<std::int64_t>(capacity())) return false;
  slots_[static_cast<std::size_t>(b) & mask_].store(
      value, std::memory_order_seq_cst);
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return true;
}

bool WorkStealingDeque::Pop(std::uint32_t* value) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
  // Reserve the bottom entry before reading top: after this store a thief
  // that loads bottom_ sees the shrunken deque, so owner and thief can
  // race only for the single remaining entry, resolved by the CAS below.
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {  // deque was empty
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return false;
  }
  *value =
      slots_[static_cast<std::size_t>(b) & mask_].load(
          std::memory_order_seq_cst);
  if (t == b) {
    // Last entry: win it against thieves by advancing top_ ourselves.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      bottom_.store(b + 1, std::memory_order_seq_cst);  // thief took it
      return false;
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);  // deque now empty
  }
  return true;
}

bool WorkStealingDeque::Steal(std::uint32_t* value) {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return false;
  // Read the slot before the CAS: winning the CAS proves no Push had
  // recycled ring position t at read time (Push stays >= t + capacity
  // until top_ advances past t, which only this CAS can do).
  *value =
      slots_[static_cast<std::size_t>(t) & mask_].load(
          std::memory_order_seq_cst);
  return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst);
}

std::size_t WorkStealingDeque::SizeEstimate() const {
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  return b > t ? static_cast<std::size_t>(b - t) : 0;
}

// ---------------------------------------------------------------------------
// JobSystem
// ---------------------------------------------------------------------------

// FACTION_COLD_BEGIN: construction pre-sizes every arena and ring and
// spawns the workers; nothing after this allocates.
JobSystem::JobSystem(const Options& options)
    : options_(options), jobs_(std::max<std::size_t>(options.max_jobs, 1)) {
  options_.workers = std::max(0, options_.workers);
  // Thread the free list through the arena.
  for (std::size_t i = 0; i + 1 < jobs_.size(); ++i) {
    jobs_[i].next_free = static_cast<std::uint32_t>(i + 1);
  }
  free_head_ = 0;
  inject_ring_.assign(jobs_.size(), UINT32_MAX);
  deques_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    deques_.push_back(
        std::make_unique<WorkStealingDeque>(options_.deque_capacity));
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}
// FACTION_COLD_END

// FACTION_COLD_BEGIN: teardown.
JobSystem::~JobSystem() {
  WaitIdle();
  // The epoch bump ends every spin; the locked section orders it before
  // any parked worker's predicate check, as in NotifyWork.
  stop_.store(true, std::memory_order_seq_cst);
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(park_mu_); }
  park_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}
// FACTION_COLD_END

std::uint32_t JobSystem::Allocate(JobFn fn, void* ctx) {
  std::uint32_t index;
  {
    SpinGuard guard(&free_lock_);
    FACTION_CHECK(free_head_ != UINT32_MAX);  // arena exhausted: raise
                                              // Options::max_jobs
    index = free_head_;
    free_head_ = jobs_[index].next_free;
  }
  Job& job = jobs_[index];
  // Bump the generation before publishing any other field: a stale handle
  // carrying the old generation now reads "recycled == finished" no matter
  // how it interleaves with the writes below.
  job.generation.fetch_add(1, std::memory_order_seq_cst);
  job.done.store(false, std::memory_order_seq_cst);
  job.fn = fn;
  job.ctx = ctx;
  job.next_free = UINT32_MAX;
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  return index;
}

void JobSystem::Release(std::uint32_t index) {
  SpinGuard guard(&free_lock_);
  jobs_[index].next_free = free_head_;
  free_head_ = index;
}

void JobSystem::NotifyWork() {
  // Called after the job is published. Dekker pairing with WorkerMain's
  // park path, all seq_cst: the worker raises sleepers_ and then reads
  // work_epoch_ before its final queue re-check; we bump work_epoch_ and
  // then read sleepers_. If we read zero, the worker's raise comes later
  // in the total order, so its epoch read sees our bump and its re-check
  // sees the job. Otherwise the empty locked section orders the bump
  // before the predicate check of any worker not yet blocked in wait, and
  // a blocked one takes the notify. One job needs one worker.
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(park_mu_); }
  park_cv_.notify_one();
}

bool JobSystem::PopInjected(std::uint32_t* index) {
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (inject_size_ == 0) return false;
  *index = inject_ring_[inject_head_];
  inject_head_ = (inject_head_ + 1) % inject_ring_.size();
  --inject_size_;
  return true;
}

void JobSystem::Enqueue(std::uint32_t index) {
  if (options_.workers == 0) {
    Execute(index);  // synchronous mode: run inline
    return;
  }
  if (tl_worker_system == this &&
      deques_[static_cast<std::size_t>(tl_worker_index)]->Push(index)) {
    // Published to our own deque; parked siblings may want to steal it.
    NotifyWork();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    // Ring capacity equals the job arena size, so it cannot overflow.
    FACTION_CHECK(inject_size_ < inject_ring_.size());
    inject_ring_[(inject_head_ + inject_size_) % inject_ring_.size()] =
        index;
    ++inject_size_;
  }
  TelemetryCount("serve.jobs.injected", 1);
  NotifyWork();
}

void JobSystem::Execute(std::uint32_t index) {
  Job& job = jobs_[index];
  job.fn(job.ctx);
  TelemetryCount("serve.jobs.executed", 1);
  job.done.store(true, std::memory_order_seq_cst);
  Release(index);
  // Transition to zero: wake WaitIdle callers, if any. Same Dekker
  // pairing as NotifyWork: a waiter raises idle_waiters_ before its
  // in_flight_ check, so reading zero here means that check sees ours.
  // Taking idle_mu_ orders this notify after any waiter's in_flight_
  // re-check under the lock.
  if (in_flight_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      idle_waiters_.load(std::memory_order_seq_cst) != 0) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle_cv_.notify_all();
  }
}

bool JobSystem::TryAcquire(std::uint32_t* index, int self) {
  if (PopInjected(index)) return true;
  const int n = static_cast<int>(deques_.size());
  for (int i = 0; i < n; ++i) {
    if (i == self) continue;
    if (deques_[static_cast<std::size_t>(i)]->Steal(index)) {
      TelemetryCount("serve.jobs.stolen", 1);
      return true;
    }
  }
  return false;
}

bool JobSystem::SpinForWork(std::uint64_t epoch) const {
  const Timer spin;
  int pauses = 1;
  while (work_epoch_.load(std::memory_order_seq_cst) == epoch) {
    if (spin.ElapsedSeconds() >= kSpinBudgetSeconds) return false;
    for (int i = 0; i < pauses; ++i) CpuRelax();
    pauses = std::min(2 * pauses, kMaxSpinPauses);
  }
  return true;
}

void JobSystem::WorkerMain(int worker_index) {
  tl_worker_system = this;
  tl_worker_index = worker_index;
  WorkStealingDeque& own =
      *deques_[static_cast<std::size_t>(worker_index)];
  std::uint32_t index;
  const auto acquire = [&] {
    return own.Pop(&index) || TryAcquire(&index, worker_index);
  };
  for (;;) {
    // Read the epoch before the sweep: a job the sweep misses was
    // published after it, and its NotifyWork bump ends the spin.
    std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (acquire()) {
      Execute(index);
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) return;
    if (SpinForWork(epoch)) continue;
    // Park. Raise sleepers_ before the epoch read and the final re-check
    // (the ordering argument is at NotifyWork).
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    epoch = work_epoch_.load(std::memory_order_seq_cst);
    if (acquire()) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      Execute(index);
      continue;
    }
    TelemetryCount("serve.workers.parked", 1);
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_seq_cst) ||
               work_epoch_.load(std::memory_order_seq_cst) != epoch;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

JobSystem::JobHandle JobSystem::Submit(JobFn fn, void* ctx) {
  const std::uint32_t index = Allocate(fn, ctx);
  // Read the generation before enqueueing: in synchronous mode the job
  // (and its recycling) completes inside Enqueue, after which the slot's
  // generation may move on.
  const JobHandle handle{
      index, jobs_[index].generation.load(std::memory_order_seq_cst)};
  Enqueue(index);
  return handle;
}

bool JobSystem::Done(const JobHandle& handle) const {
  if (handle.index == UINT32_MAX ||
      handle.index >= static_cast<std::uint32_t>(jobs_.size())) {
    return true;
  }
  const Job& job = jobs_[handle.index];
  // A generation mismatch means the slot was recycled, which implies the
  // job finished first.
  if (job.generation.load(std::memory_order_seq_cst) != handle.generation) {
    return true;
  }
  return job.done.load(std::memory_order_seq_cst);
}

void JobSystem::Wait(const JobHandle& handle) {
  const int self = tl_worker_system == this ? tl_worker_index : -1;
  std::uint32_t index;
  while (!Done(handle)) {
    if (self >= 0 &&
        deques_[static_cast<std::size_t>(self)]->Pop(&index)) {
      Execute(index);
    } else if (TryAcquire(&index, self)) {
      Execute(index);
    } else {
      std::this_thread::yield();
    }
  }
}

void JobSystem::WaitIdle() {
  // Would deadlock from inside a job: the caller's own job counts toward
  // in_flight_ and can never retire while it blocks here.
  FACTION_CHECK(tl_worker_system != this);
  std::uint32_t index;
  while (TryAcquire(&index, /*self=*/-1)) Execute(index);
  idle_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] {
      return in_flight_.load(std::memory_order_seq_cst) == 0;
    });
  }
  idle_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

std::size_t JobSystem::InFlight() const {
  const std::int64_t n = in_flight_.load(std::memory_order_seq_cst);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

}  // namespace faction
