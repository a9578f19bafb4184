// FACTION_HOT: Push/Drain/Step run once per served arrival; everything
// outside the FACTION_COLD construction fence must stay allocation-free
// (the learner's own hot path is already audited in streaming_faction.cc).
#include "serve/session.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"

namespace faction {

// FACTION_COLD_BEGIN: one-time construction. Every mailbox slot's feature
// vector is pre-sized to the model's input dimension so Push is a pure
// element copy, and the decision log reserves its full capacity up front.
ServeSession::ServeSession(const ServeSessionOptions& options)
    : stream_id_(options.stream_id), faction_(options.faction) {
  FACTION_CHECK(options.mailbox_capacity > 0);
  slots_.resize(options.mailbox_capacity);
  for (Arrival& slot : slots_) {
    slot.example.x.resize(options.faction.model.input_dim, 0.0);
  }
  decisions_.reserve(options.decision_log_capacity);
}
// FACTION_COLD_END

bool ServeSession::Push(const Example& example, double enqueue_seconds) {
  const std::uint64_t push = push_count_.load(std::memory_order_seq_cst);
  const std::uint64_t pop = pop_count_.load(std::memory_order_seq_cst);
  if (push - pop >= slots_.size()) {
    shed_.fetch_add(1, std::memory_order_seq_cst);
    TelemetryCount("serve.arrivals.shed", 1);
    return false;
  }
  Arrival& slot = slots_[static_cast<std::size_t>(push % slots_.size())];
  FACTION_CHECK(example.x.size() == slot.example.x.size());
  std::copy(example.x.begin(), example.x.end(), slot.example.x.begin());
  slot.example.sensitive = example.sensitive;
  slot.example.label = example.label;
  slot.example.environment = example.environment;
  slot.enqueue_seconds = enqueue_seconds;
  // Publishing the count releases the slot writes to the drainer (seq_cst
  // store; the drainer's matching load is seq_cst too).
  push_count_.store(push + 1, std::memory_order_seq_cst);
  return true;
}

void ServeSession::Step(const Arrival& arrival, const Timer* clock) {
  const Result<bool> query = faction_.ShouldQuery(arrival.example);
  FACTION_CHECK(query.ok());
  if (query.value()) {
    // A refit whose training diverged has already restored the weights it
    // started from: count it and keep serving the last good model. The
    // label stays in the pool, so the next label retries the refit.
    const Status fold = faction_.ProvideLabel(arrival.example);
    if (!fold.ok()) {
      FACTION_CHECK(fold.code() == StatusCode::kNumericalError);
      TelemetryCount("serve.refit_failures");
    }
  }
  if (decisions_.capacity() > 0) {
    // reserve() ran in the constructor, so this push_back never
    // reallocates; overflowing the pre-sized log is a setup bug.
    FACTION_CHECK(decisions_.size() < decisions_.capacity());
    decisions_.push_back(query.value() ? 1 : 0);
  }
  if (clock != nullptr && arrival.enqueue_seconds >= 0.0) {
    TelemetryObserve("serve.step.latency_seconds",
                     clock->ElapsedSeconds() - arrival.enqueue_seconds);
  }
}

void ServeSession::Drain(const Timer* clock) {
  std::uint64_t pop = pop_count_.load(std::memory_order_seq_cst);
  // Snapshot the push count once per pass; arrivals landing mid-drain are
  // picked up by the next pass (or by FinishSchedule's re-take).
  std::uint64_t push = push_count_.load(std::memory_order_seq_cst);
  while (pop != push) {
    while (pop != push) {
      Step(slots_[static_cast<std::size_t>(pop % slots_.size())], clock);
      ++pop;
      // Publish per-arrival so the producer regains the slot promptly.
      pop_count_.store(pop, std::memory_order_seq_cst);
    }
    push = push_count_.load(std::memory_order_seq_cst);
  }
}

bool ServeSession::BeginSchedule() {
  int expected = kIdle;
  return sched_.compare_exchange_strong(expected, kScheduled,
                                        std::memory_order_seq_cst,
                                        std::memory_order_seq_cst);
}

bool ServeSession::FinishSchedule() {
  sched_.store(kIdle, std::memory_order_seq_cst);
  // Under seq_cst this re-check closes the race with a producer whose
  // Push landed after our final Drain snapshot but whose BeginSchedule
  // CAS lost to our still-held schedule: either the producer's CAS runs
  // after our store above and wins (it schedules), or it ran before and
  // failed — in which case its push_count_ store is already visible to
  // the load below and we re-take the schedule ourselves.
  if (MailboxEmpty()) return false;
  return BeginSchedule();
}

}  // namespace faction
