// FACTION_HOT: Find sits on the serve dispatch path (one hash lookup, no
// allocation). The mutating control-plane operations live inside
// FACTION_COLD fences.
#include "serve/session_registry.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace faction {

// FACTION_COLD_BEGIN: control-plane mutations and snapshots.
ServeSession* SessionRegistry::Create(const ServeSessionOptions& options) {
  auto session = std::make_unique<ServeSession>(options);
  ServeSession* raw = session.get();
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      sessions_.emplace(options.stream_id, std::move(session)).second;
  FACTION_CHECK(inserted);  // duplicate stream id
  return raw;
}

std::vector<ServeSession*> SessionRegistry::Sessions() const {
  std::vector<ServeSession*> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(sessions_.size());
    for (const auto& entry : sessions_) out.push_back(entry.second.get());
  }
  std::sort(out.begin(), out.end(),
            [](const ServeSession* a, const ServeSession* b) {
              return a->stream_id() < b->stream_id();
            });
  return out;
}
// FACTION_COLD_END

ServeSession* SessionRegistry::Find(std::uint64_t stream_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(stream_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace faction
