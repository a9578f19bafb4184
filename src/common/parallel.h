#ifndef FACTION_COMMON_PARALLEL_H_
#define FACTION_COMMON_PARALLEL_H_

#include <cstddef>
#include <memory>
#include <type_traits>

// Deterministic parallel execution layer.
//
// A single persistent thread pool (no per-call thread spawns) backs
// ParallelForChunks. Its one client is Conv2d's per-sample forward and
// backward (nn/conv.cc); every other kernel runs serially on the calling
// thread, because at the shapes this library runs a pool region costs more
// than it saves (DESIGN.md §9). The determinism contract:
//
//   * The index range is split into chunks of `grain` consecutive indices.
//     The chunk layout depends ONLY on (begin, end, grain) — never on the
//     thread count — so chunk-indexed partial results (e.g. per-chunk
//     gradient buffers combined in chunk order) are reproducible.
//   * Each chunk is executed by exactly one thread; chunks never split.
//   * The body must write only to chunk-disjoint outputs (no shared
//     accumulators). Reductions go through per-chunk partials combined in
//     chunk order by the caller.
//
// Under this contract every result is bitwise identical for any thread
// count, including the serial path. FACTION_NUM_THREADS configures the
// worker count (default: hardware concurrency; 1 forces the serial path).
//
// Nested calls are safe: a call made from inside a parallel body runs
// serially inline on the calling worker.
//
// The entry point is a template that type-erases the body into a plain
// function pointer + context pointer. Unlike std::function — whose
// small-buffer optimisation tops out at two words on libstdc++ — this
// never heap-allocates, no matter how much the body captures, which keeps
// a region legal inside ScopedAllocationBan regions (alloc_audit.h).

namespace faction {

/// Number of threads the parallel layer may use (>= 1). Resolved once from
/// FACTION_NUM_THREADS (default: hardware concurrency).
int ParallelThreadCount();

/// Overrides the thread count at runtime and rebuilds the pool; used by
/// tests and embedders. Values < 1 clamp to 1. Must not be called from
/// inside a parallel body.
void SetParallelThreadCount(int n);

/// Number of chunks ParallelForChunks will form for this range/grain.
/// Callers sizing per-chunk partial buffers use this; it is independent of
/// the thread count.
std::size_t ParallelChunkCount(std::size_t begin, std::size_t end,
                               std::size_t grain);

namespace internal {

/// Erased chunk body: body(ctx, chunk, chunk_begin, chunk_end). The ctx is
/// const because the thunks below invoke the caller's functor through its
/// const call operator (reference captures stay mutable through it).
using ErasedChunkBody = void (*)(const void* ctx, std::size_t chunk,
                                 std::size_t chunk_begin,
                                 std::size_t chunk_end);

/// Allocation-free core of ParallelForChunks. Splits [begin, end) into
/// grain-sized chunks and runs them across the pool per the determinism
/// contract; each region handed to the pool bumps the telemetry counter
/// "parallel.pool_regions". The first exception thrown by any chunk is
/// rethrown on the calling thread after all chunks retire.
void ParallelForChunksErased(std::size_t begin, std::size_t end,
                             std::size_t grain, ErasedChunkBody body,
                             const void* ctx);

}  // namespace internal

/// Runs fn(chunk, chunk_begin, chunk_end) over consecutive chunks of at
/// most `grain` indices covering [begin, end). Use when the body writes
/// per-chunk partial results that the caller combines in chunk order.
template <typename Fn>
void ParallelForChunks(std::size_t begin, std::size_t end, std::size_t grain,
                       Fn&& fn) {
  using Body = typename std::remove_reference<Fn>::type;
  internal::ParallelForChunksErased(
      begin, end, grain,
      [](const void* ctx, std::size_t chunk, std::size_t lo,
         std::size_t hi) {
        (*static_cast<const Body*>(ctx))(chunk, lo, hi);
      },
      std::addressof(fn));
}

}  // namespace faction

#endif  // FACTION_COMMON_PARALLEL_H_
