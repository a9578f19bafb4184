#ifndef FACTION_COMMON_ALLOC_AUDIT_H_
#define FACTION_COMMON_ALLOC_AUDIT_H_

#include <cstdint>

// Heap-allocation audit layer (DESIGN.md §13).
//
// Built with -DFACTION_ALLOC_AUDIT=ON, src/common/alloc_audit.cc replaces
// the global operator new/delete family (all sized/aligned/nothrow
// variants) with thin wrappers that keep per-thread counters and honour
// the scoped ban below. Without the option every entry point here is a
// no-op returning zeros, so library code can deploy bans unconditionally.
//
// The counters are thread-local: a snapshot diff brackets exactly the work
// the calling thread did. The dense kernels all run on the calling thread,
// so a ban covers them; only Conv2d's chunks run on pool workers, which do
// not inherit the caller's ban. Hot kernels are also kept allocation-free
// by construction (thread-local pack scratch, caller-owned arenas) and
// linted via `no-alloc-in-hot`.
//
// Interposition relies on the audit TU being linked into the binary: any
// reference to a symbol below (e.g. the trace writer's AllocAuditMode()
// call or a test's ScopedAllocationBan) pulls it from the static archive.

namespace faction {

/// Per-thread allocation counters. `allocs`/`bytes` accumulate operator
/// new calls and requested sizes, `frees` counts operator delete calls,
/// `peak_bytes` is the largest single request seen on this thread.
struct AllocationStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
  std::uint64_t peak_bytes = 0;
};

/// True when the binary interposes the allocator (FACTION_ALLOC_AUDIT=ON).
// lint-allow(test-only-api): tests pick the audit build's expectations with it
constexpr bool AllocAuditEnabled() {
#if defined(FACTION_ALLOC_AUDIT)
  return true;
#else
  return false;
#endif
}

/// "on" / "off"; stamped into the trace run_start record (schema v3) so a
/// replayed trace records whether its run was allocation-audited.
const char* AllocAuditMode();

/// Snapshot of the calling thread's counters (all zero when audit is off).
// lint-allow(test-only-api): tests assert the steady state allocates nothing
AllocationStats ThreadAllocationStats();

/// RAII guard marking a region that must not allocate on this thread.
///
///   kFatal — the first operator new aborts via the FACTION_CHECK failure
///            path, reporting the site label, the requested size, and the
///            return address of the allocating call.
///   kCount — violations are tallied; at scope exit the tallies are
///            published to the telemetry counters
///            `alloc.steady_state_allocs` / `alloc.steady_state_bytes`.
///
/// Bans nest (the innermost site/mode wins; counters are shared), and
/// ScopedAllocationAllow punches an exemption hole for cold or amortized
/// branches inside a banned region. No-op without FACTION_ALLOC_AUDIT.
class ScopedAllocationBan {
 public:
  enum class Mode { kFatal, kCount };

  explicit ScopedAllocationBan(const char* site, Mode mode = Mode::kFatal);
  ~ScopedAllocationBan();

  ScopedAllocationBan(const ScopedAllocationBan&) = delete;
  ScopedAllocationBan& operator=(const ScopedAllocationBan&) = delete;

  /// Allocations observed under a ban since this scope opened (includes
  /// nested scopes on the same thread).
  std::uint64_t violations() const;
  std::uint64_t violation_bytes() const;

 private:
  const char* site_;
  Mode mode_;
  const char* prev_site_;
  Mode prev_mode_;
  std::uint64_t entry_violations_;
  std::uint64_t entry_violation_bytes_;
};

/// RAII exemption: re-permits allocation inside a ScopedAllocationBan for
/// a deliberately amortized branch (arena growth, density refit, error
/// reporting). Nests; no-op without FACTION_ALLOC_AUDIT.
class ScopedAllocationAllow {
 public:
  ScopedAllocationAllow();
  ~ScopedAllocationAllow();

  ScopedAllocationAllow(const ScopedAllocationAllow&) = delete;
  ScopedAllocationAllow& operator=(const ScopedAllocationAllow&) = delete;
};

}  // namespace faction

#endif  // FACTION_COMMON_ALLOC_AUDIT_H_
