#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"

namespace faction {

namespace {

// True while the current thread is executing a parallel body (worker or
// caller); nested calls detect this and run serially inline.
thread_local bool tl_inside_parallel = false;

int DefaultThreadCount() {
  if (const char* env = std::getenv("FACTION_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0' && v >= 1 &&
        v <= 4096) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0U ? 1 : static_cast<int>(hw);
}

// A parallel region handed to the pool: erased slot body + context. Plain
// pointers (not std::function) so dispatching a region never allocates.
using SlotBody = void (*)(const void* ctx, int slot);

// Persistent worker pool. One parallel region runs at a time; workers park
// on a condition variable between regions, so a region costs two broadcast
// notifications instead of thread spawns. All shared state is guarded by
// mu_; the caller's final wait on done_cv_ establishes the happens-before
// edge between worker writes and the caller reading the results.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  int thread_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return target_threads_;
  }

  void set_thread_count(int n) {
    FACTION_CHECK(!tl_inside_parallel);
    n = std::max(1, n);
    std::unique_lock<std::mutex> lock(mu_);
    FACTION_CHECK(region_body_ == nullptr);
    StopWorkers(&lock);
    target_threads_ = n;
    // Workers are respawned lazily by the next Run().
  }

  /// Executes body(ctx, slot) for every slot in [0, n_tasks) across the
  /// caller (slot 0) and the pool workers, then rethrows the first stored
  /// exception, if any.
  void Run(int n_tasks, SlotBody body, const void* ctx) {
    // Serialize concurrent top-level regions (nested calls never reach
    // here: they run inline on the worker).
    std::lock_guard<std::mutex> run_lock(run_mu_);
    std::exception_ptr caller_error;
    std::unique_lock<std::mutex> lock(mu_);
    FACTION_CHECK(region_body_ == nullptr);
    EnsureWorkers();
    region_body_ = body;
    region_ctx_ = ctx;
    region_tasks_ = n_tasks;
    arrived_ = 0;
    error_ = nullptr;
    ++epoch_;
    work_cv_.notify_all();
    lock.unlock();

    tl_inside_parallel = true;
    try {
      body(ctx, 0);
    } catch (...) {
      caller_error = std::current_exception();
    }
    tl_inside_parallel = false;

    lock.lock();
    done_cv_.wait(lock, [&] {
      return arrived_ == static_cast<int>(workers_.size());
    });
    region_body_ = nullptr;
    region_ctx_ = nullptr;
    std::exception_ptr error = error_ != nullptr ? error_ : caller_error;
    error_ = nullptr;
    lock.unlock();
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  ThreadPool() : target_threads_(DefaultThreadCount()) {}

  ~ThreadPool() {
    std::unique_lock<std::mutex> lock(mu_);
    StopWorkers(&lock);
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Requires mu_ held; spawns the background workers if absent.
  void EnsureWorkers() {
    if (!workers_.empty() || target_threads_ <= 1) return;
    workers_.reserve(static_cast<std::size_t>(target_threads_ - 1));
    for (int i = 0; i < target_threads_ - 1; ++i) {
      workers_.emplace_back([this, i] { WorkerMain(i); });
    }
  }

  // Requires mu_ held via *lock; joins and clears all workers.
  void StopWorkers(std::unique_lock<std::mutex>* lock) {
    if (workers_.empty()) return;
    stop_ = true;
    work_cv_.notify_all();
    lock->unlock();
    for (std::thread& t : workers_) t.join();
    lock->lock();
    workers_.clear();
    stop_ = false;
  }

  void WorkerMain(int worker_index) {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      SlotBody body = nullptr;
      const void* ctx = nullptr;
      int n_tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        body = region_body_;
        ctx = region_ctx_;
        n_tasks = region_tasks_;
      }
      const int slot = worker_index + 1;
      if (slot < n_tasks) {
        tl_inside_parallel = true;
        try {
          body(ctx, slot);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (error_ == nullptr) error_ = std::current_exception();
        }
        tl_inside_parallel = false;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (++arrived_ == static_cast<int>(workers_.size())) {
          done_cv_.notify_one();
        }
      }
    }
  }

  std::mutex run_mu_;  // serializes whole regions
  std::mutex mu_;      // guards all fields below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  int target_threads_ = 1;
  bool stop_ = false;
  std::uint64_t epoch_ = 0;
  SlotBody region_body_ = nullptr;
  const void* region_ctx_ = nullptr;
  int region_tasks_ = 0;
  int arrived_ = 0;
  std::exception_ptr error_;
};

}  // namespace

int ParallelThreadCount() { return ThreadPool::Instance().thread_count(); }

void SetParallelThreadCount(int n) {
  ThreadPool::Instance().set_thread_count(n);
}

std::size_t ParallelChunkCount(std::size_t begin, std::size_t end,
                               std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

namespace internal {

void ParallelForChunksErased(std::size_t begin, std::size_t end,
                             std::size_t grain, ErasedChunkBody body,
                             const void* ctx) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t nchunks = (end - begin + g - 1) / g;
  const std::size_t n_tasks = std::min(
      static_cast<std::size_t>(ParallelThreadCount()), nchunks);
  if (n_tasks <= 1 || tl_inside_parallel) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t lo = begin + c * g;
      const std::size_t hi = std::min(end, lo + g);
      body(ctx, c, lo, hi);
    }
    return;
  }
  TelemetryCount("parallel.pool_regions");
  // Static partition: task `slot` owns a fixed contiguous run of chunks.
  // The region descriptor lives on the caller's stack; Run() blocks until
  // every slot retires, so borrowing it from workers is safe.
  struct Region {
    ErasedChunkBody body;
    const void* ctx;
    std::size_t begin, end, grain, nchunks, n_tasks;
  };
  const Region region{body, ctx, begin, end, g, nchunks, n_tasks};
  ThreadPool::Instance().Run(
      static_cast<int>(n_tasks),
      [](const void* rctx, int slot) {
        const Region& r = *static_cast<const Region*>(rctx);
        const std::size_t s = static_cast<std::size_t>(slot);
        const std::size_t chunk_lo = r.nchunks * s / r.n_tasks;
        const std::size_t chunk_hi = r.nchunks * (s + 1) / r.n_tasks;
        for (std::size_t c = chunk_lo; c < chunk_hi; ++c) {
          const std::size_t lo = r.begin + c * r.grain;
          const std::size_t hi = std::min(r.end, lo + r.grain);
          r.body(r.ctx, c, lo, hi);
        }
      },
      &region);
}

}  // namespace internal

}  // namespace faction
