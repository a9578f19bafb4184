#include "tracer.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  FACTION_CHECK(!open_.empty() && open_.back() == span);
  spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& t = totals[spans_[i].name];
    t.total_s += 1e-9 * static_cast<double>(duration);
    t.self_s += 1e-9 * static_cast<double>(duration - child_ns[i]);
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"id\":%llu}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.id));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
