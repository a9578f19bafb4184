// Span recorder for the benchmark's traced runs. Spans stay in memory while
// a workload runs and are written out when it ends, so recording one costs
// two clock reads and a vector append.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      ///< a string literal
  std::int64_t start_ns = 0;  ///< steady clock, from the tracer's creation
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span; -1 at a root
  std::uint64_t id = 0;       ///< the run or arrival the span belongs to
};

struct SpanTotals {
  double total_s = 0.0;
  /// Duration minus the part covered by direct child spans.
  double self_s = 0.0;
};

/// Records nested spans from a single thread.
class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(const char* name, std::uint64_t id);
  /// Closes `span`, which must be the innermost open span.
  void End(int span);

  /// Total and self seconds per span name.
  std::map<std::string, SpanTotals> Totals() const;
  /// One JSON object per span and line; false when the file is not written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records a span over the enclosing scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
