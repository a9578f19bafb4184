// FACTION_HOT: selection runs on every acquisition under the steady-state
// allocation ban; allocating idioms here are lint findings (tools/lint.py
// no-alloc-in-hot, DESIGN.md §13).
#include "stream/selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace faction {

namespace {

// Sort key that maps NaN to -inf so the descending comparators below are a
// strict weak ordering even on NaN-polluted scores. Raw `a > b` with NaN
// violates transitivity of equivalence, which is UB for std::stable_sort.
inline double SortKey(double v) {
  return std::isnan(v) ? -std::numeric_limits<double>::infinity() : v;
}

}  // namespace

void MinMaxNormalizeInto(const std::vector<double>& scores,
                         std::vector<double>* out) {
  out->assign(scores.size(), 0.5);
  if (scores.empty()) return;
  const auto [mn_it, mx_it] = std::minmax_element(scores.begin(), scores.end());
  const double mn = *mn_it;
  const double mx = *mx_it;
  if (mx - mn < 1e-300) return;  // constant scores
  double* o = out->data();
  for (std::size_t i = 0; i < scores.size(); ++i) {
    o[i] = (scores[i] - mn) / (mx - mn);
  }
}

// FACTION_COLD_BEGIN: value-returning convenience wrapper for tests and
// one-off callers; the pipeline uses the Into variant.
std::vector<double> MinMaxNormalize(const std::vector<double>& scores) {
  std::vector<double> out;
  MinMaxNormalizeInto(scores, &out);
  return out;
}
// FACTION_COLD_END

void BernoulliSelectInto(const std::vector<double>& omega, double alpha,
                         std::size_t batch, Rng* rng,
                         SelectionScratch* scratch,
                         std::vector<std::size_t>* out) {
  SelectionScratch local;
  SelectionScratch* s = scratch != nullptr ? scratch : &local;
  const std::size_t n = omega.size();
  s->order.resize(n);
  std::iota(s->order.begin(), s->order.end(), std::size_t{0});
  // Visit order: descending SortKey, ties by ascending index — a strict
  // total order, so any sorted prefix equals the stable sort's. A round
  // usually visits only about `batch` candidates, so the order is sorted
  // lazily: a prefix first, extended (doubling) only when a pass or the
  // exhaustion fallback reaches its end.
  const auto before = [&](std::size_t a, std::size_t b) {
    const double ka = SortKey(omega[a]);
    const double kb = SortKey(omega[b]);
    return ka > kb || (ka == kb && a < b);
  };
  std::size_t sorted = 0;
  const auto sorted_at = [&](std::size_t pos) {
    if (pos >= sorted) {
      const std::size_t end =
          std::min(n, std::max(pos + 1, std::max(2 * batch, 2 * sorted)));
      std::partial_sort(s->order.begin() + static_cast<std::ptrdiff_t>(sorted),
                        s->order.begin() + static_cast<std::ptrdiff_t>(end),
                        s->order.end(), before);
      sorted = end;
    }
    return s->order[pos];
  };
  std::vector<std::size_t>& accepted = *out;
  accepted.clear();
  s->taken.assign(n, 0);
  const std::size_t want = std::min(batch, n);
  // Cycle over the (sorted) pool until the acquisition batch is filled.
  // When alpha and all omegas are 0 the trials never fire; guard with a
  // pass counter that falls back to deterministic acceptance.
  int passes_without_progress = 0;
  while (accepted.size() < want && passes_without_progress < 64) {
    bool progressed = false;
    for (std::size_t pos = 0; pos < n && accepted.size() < want; ++pos) {
      const std::size_t idx = sorted_at(pos);
      if (s->taken[idx] != 0) continue;
      const double raw = alpha * omega[idx];
      // NaN omega (or alpha) yields p = 0: the candidate can only enter
      // through the exhaustion fallback, never through a Bernoulli draw.
      const double p = std::isnan(raw) ? 0.0 : std::min(raw, 1.0);
      if (rng->Bernoulli(p)) {
        s->taken[idx] = 1;
        accepted.push_back(idx);
        progressed = true;
      }
    }
    passes_without_progress = progressed ? 0 : passes_without_progress + 1;
  }
  // Degenerate probabilities: fill deterministically in omega order so the
  // learner still honors its acquisition size.
  for (std::size_t pos = 0; pos < n && accepted.size() < want; ++pos) {
    const std::size_t idx = sorted_at(pos);
    if (s->taken[idx] == 0) {
      s->taken[idx] = 1;
      accepted.push_back(idx);
    }
  }
}

// FACTION_COLD_BEGIN: the returned index vector is the strategy interface's
// result object — building it allocates by design; strategies keep the ban
// scope closed before calling in. TopK is baseline-only (per-task cadence).
std::vector<std::size_t> BernoulliSelect(const std::vector<double>& omega,
                                         double alpha, std::size_t batch,
                                         Rng* rng,
                                         SelectionScratch* scratch) {
  std::vector<std::size_t> accepted;
  BernoulliSelectInto(omega, alpha, batch, rng, scratch, &accepted);
  return accepted;
}

std::vector<std::size_t> TopK(const std::vector<double>& scores,
                              std::size_t k) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return SortKey(scores[a]) > SortKey(scores[b]);
                   });
  if (order.size() > k) order.resize(k);
  return order;
}
// FACTION_COLD_END

}  // namespace faction
