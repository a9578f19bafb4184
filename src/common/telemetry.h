#ifndef FACTION_COMMON_TELEMETRY_H_
#define FACTION_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_audit.h"
#include "common/timer.h"

namespace faction {

/// Process-wide run metrics: monotonic counters, gauges, and fixed-bucket
/// log-spaced histograms (see DESIGN.md §11).
///
/// The registry is disabled by default and every instrumentation site goes
/// through the inline helpers below, whose disabled path is a single atomic
/// pointer load plus a branch — no allocation, no lock. Instrumentation
/// must never change results: sites only *observe* (the acquisition loop,
/// training, density refits, drift detection, evaluation). Counters are
/// bumped from the calling thread, never from inside a pool region, so
/// their values are identical for any worker-thread count. The one
/// exception is "parallel.pool_regions" (common/parallel.cc), which counts
/// the regions handed to the pool and so reads 0 at one thread.
///
/// Counter names are dot-separated lowercase paths ("evaluator.tasks",
/// "faction.density_full_refit"). Histograms observing wall-clock durations
/// use a ".seconds" suffix; their *values* are inherently non-deterministic
/// while their counts remain deterministic.
class Telemetry {
 public:
  /// Histogram bucketing: kNumBuckets log-spaced buckets with upper bounds
  /// kFirstBound * 2^i, plus an underflow bucket (index 0, values below
  /// kFirstBound including zero/negative) and an overflow bucket (last
  /// index). Fixed at compile time so snapshots are comparable across runs.
  static constexpr double kFirstBound = 1e-9;
  static constexpr int kNumBuckets = 64;

  struct HistogramSnapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;  ///< meaningful only when count > 0
    /// kNumBuckets + 2 slots: [underflow, bucket 0..kNumBuckets-1, overflow].
    std::vector<std::uint64_t> buckets;
  };

  /// Bucket slot (0..kNumBuckets+1) a value falls into.
  static int BucketIndex(double value);

  /// The enabled registry, or nullptr when telemetry is off. The fast path
  /// for every instrumentation helper.
  static Telemetry* Get() {
    return instance_.load(std::memory_order_acquire);
  }

  /// Turns the process-wide registry on (idempotent) and returns it. State
  /// accumulated before a Disable() is retained; call Reset() for a clean
  /// slate.
  static Telemetry* Enable();

  /// Turns instrumentation off. The registry's contents remain readable
  /// through the pointer returned by the preceding Enable().
  static void Disable();

  /// Adds `delta` to the named monotonic counter (created at zero).
  void AddCounter(const std::string& name, std::uint64_t delta = 1);

  /// Sets the named gauge to `value` (last-write-wins).
  void SetGauge(const std::string& name, double value);

  /// Records `value` into the named histogram.
  void Observe(const std::string& name, double value);

  /// Current value of a counter; 0 when it was never touched.
  std::uint64_t CounterValue(const std::string& name) const;

  /// Current value of a gauge; 0.0 when it was never set.
  // lint-allow(test-only-api): tests read back what TelemetryGauge recorded
  double GaugeValue(const std::string& name) const;

  /// Snapshot of a histogram; zero-count snapshot when it was never
  /// observed.
  HistogramSnapshot HistogramFor(const std::string& name) const;

  /// All counters, sorted by name (deterministic iteration order).
  std::vector<std::pair<std::string, std::uint64_t>> Counters() const;

  /// All gauges, sorted by name.
  std::vector<std::pair<std::string, double>> Gauges() const;

  /// All histogram names, sorted.
  std::vector<std::string> HistogramNames() const;

  /// Clears every counter, gauge, and histogram.
  void Reset();

  /// Renders a markdown section (counters table, gauge table, histogram
  /// count/mean/min/max table). Sections with no entries are omitted.
  void WriteMarkdown(std::ostream& os) const;

 private:
  struct Histogram {
    HistogramSnapshot snap;
  };

  static std::atomic<Telemetry*> instance_;

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Instrumentation helpers: no-ops (one pointer load) when telemetry is
/// disabled. Names should be string literals so the disabled path performs
/// no allocation. The enabled path builds std::string keys, which is
/// observation overhead rather than pipeline work — it runs under a
/// ScopedAllocationAllow so a steady-state allocation ban (alloc_audit.h)
/// measures the pipeline, not the instrumentation of it.
inline void TelemetryCount(const char* name, std::uint64_t delta = 1) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    t->AddCounter(name, delta);
  }
}

inline void TelemetryGauge(const char* name, double value) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    t->SetGauge(name, value);
  }
}

inline void TelemetryObserve(const char* name, double value) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    t->Observe(name, value);
  }
}

/// Reads a counter through the enabled registry; 0 when telemetry is off.
/// Used by trace writers to fold counter deltas into per-task records.
inline std::uint64_t TelemetryCounterValue(const char* name) {
  if (Telemetry* t = Telemetry::Get()) {
    ScopedAllocationAllow allow_instrumentation;
    return t->CounterValue(name);
  }
  return 0;
}

/// RAII wall-clock timer recording elapsed seconds into a histogram on
/// destruction. When telemetry is disabled at construction the destructor
/// does nothing (and the clock is never read).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : name_(name), active_(Telemetry::Get() != nullptr) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (active_) TelemetryObserve(name_, timer_.ElapsedSeconds());
  }

  /// Seconds since construction (0.0 when telemetry was disabled then).
  double ElapsedSeconds() const {
    return active_ ? timer_.ElapsedSeconds() : 0.0;
  }

 private:
  const char* name_;
  bool active_;
  Timer timer_;
};

}  // namespace faction

#endif  // FACTION_COMMON_TELEMETRY_H_
