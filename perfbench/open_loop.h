// Open-loop load generation against any serving system that takes arrivals
// per session and reports completions. The generator runs on the calling
// thread: it offers each arrival at its due time and polls for completions
// in between. Latency runs from the due time, so a stall shows on every
// arrival queued behind it, not only on the one that hit it.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tracer.h"

namespace perfbench {

/// The system under load.
class ServeTarget {
 public:
  virtual ~ServeTarget() = default;

  virtual std::size_t sessions() const = 0;
  /// Hands the session its next arrival; `index` counts the session's
  /// arrivals in this run from 0. False when the system refused it.
  virtual bool Offer(std::size_t session, std::size_t index) = 0;
  /// Arrivals of the session completed so far. Must be safe to call while
  /// other threads serve; only its increase during the run is used.
  virtual std::size_t Completed(std::size_t session) const = 0;
};

struct Arrival {
  double due_s = 0.0;
  std::uint32_t session = 0;
};

/// Poisson arrivals at `rate` per second: exactly `per_session` arrivals
/// for each session, in a seeded random order.
std::vector<Arrival> PoissonSchedule(std::size_t sessions,
                                     std::size_t per_session, double rate,
                                     std::uint64_t seed);

/// Indexed by schedule position. A refused arrival's latency is NaN.
struct OpenLoopResult {
  std::vector<double> latency_ms;    ///< due time -> observed completion
  std::vector<double> lag_ms;        ///< due time -> start of its Offer
  std::vector<double> offer_us;      ///< time inside Offer
  std::vector<std::uint32_t> index;  ///< arrival index within its session
  std::size_t refused = 0;
  /// Most accepted-but-uncompleted arrivals seen at any poll.
  std::size_t backlog_max = 0;
};

/// Runs the schedule until every accepted arrival has completed. With a
/// tracer, each Offer call becomes a "serve.offer" span whose id is the
/// schedule position.
OpenLoopResult RunOpenLoop(ServeTarget* target,
                           const std::vector<Arrival>& schedule,
                           Tracer* tracer = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
