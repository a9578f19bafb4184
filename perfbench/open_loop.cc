#include "open_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/rng.h"

namespace perfbench {

std::vector<Arrival> PoissonSchedule(std::size_t sessions,
                                     std::size_t per_session, double rate,
                                     std::uint64_t seed) {
  faction::Rng rng(seed);
  std::vector<std::size_t> order;
  rng.Permutation(sessions * per_session, &order);
  std::vector<Arrival> schedule(order.size());
  double due = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    due += -std::log(1.0 - rng.Uniform()) / rate;
    schedule[i].due_s = due;
    schedule[i].session = static_cast<std::uint32_t>(order[i] % sessions);
  }
  return schedule;
}

OpenLoopResult RunOpenLoop(ServeTarget* target,
                           const std::vector<Arrival>& schedule,
                           Tracer* tracer) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = schedule.size();
  const std::size_t sessions = target->sessions();
  OpenLoopResult result;
  result.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.lag_ms.assign(n, 0.0);
  result.offer_us.assign(n, 0.0);
  result.index.assign(n, 0);

  // Per session: completions before the run, arrivals offered, and the
  // schedule positions of accepted arrivals in the order they complete.
  std::vector<std::size_t> base(sessions), offered(sessions, 0),
      done(sessions, 0);
  std::vector<std::vector<std::uint32_t>> accepted(sessions);
  for (std::size_t s = 0; s < sessions; ++s) base[s] = target->Completed(s);

  const Clock::time_point t0 = Clock::now();
  const auto now_s = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::size_t next = 0;
  std::size_t outstanding = 0;
  while (next < n || outstanding > 0) {
    while (next < n && schedule[next].due_s <= now_s()) {
      const Arrival& arrival = schedule[next];
      const std::size_t s = arrival.session;
      const double start = now_s();
      const int span =
          tracer != nullptr ? tracer->Begin("serve.offer", next) : -1;
      const bool ok = target->Offer(s, offered[s]);
      if (tracer != nullptr) tracer->End(span);
      const double end = now_s();
      result.index[next] = static_cast<std::uint32_t>(offered[s]++);
      result.lag_ms[next] = (start - arrival.due_s) * 1e3;
      result.offer_us[next] = (end - start) * 1e6;
      if (ok) {
        accepted[s].push_back(static_cast<std::uint32_t>(next));
        ++outstanding;
      } else {
        ++result.refused;
      }
      ++next;
    }
    for (std::size_t s = 0; s < sessions; ++s) {
      if (done[s] == accepted[s].size()) continue;
      const std::size_t completed = target->Completed(s) - base[s];
      if (completed <= done[s]) continue;
      // Read the clock after the completion count, so a latency is never
      // shorter than the true one.
      const double now = now_s();
      while (done[s] < completed && done[s] < accepted[s].size()) {
        const std::uint32_t pos = accepted[s][done[s]++];
        result.latency_ms[pos] = (now - schedule[pos].due_s) * 1e3;
        --outstanding;
      }
    }
    result.backlog_max = std::max(result.backlog_max, outstanding);
  }
  return result;
}

}  // namespace perfbench
