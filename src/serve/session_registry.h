#ifndef FACTION_SERVE_SESSION_REGISTRY_H_
#define FACTION_SERVE_SESSION_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/session.h"

namespace faction {

/// Owns every ServeSession, keyed by stream id. Node-based storage keeps
/// session addresses stable for the lifetime of the registry, so the serve
/// runtime and job contexts may hold raw ServeSession* across rehashes.
///
/// Create is a cold control-plane operation (it allocates and takes the
/// mutex); Find is hot-path legal (lookup only, no allocation).
class SessionRegistry {
 public:
  SessionRegistry() = default;

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Creates and registers a session; FACTION_CHECKs that the stream id is
  /// unused. The returned pointer stays valid until the registry is destroyed.
  ServeSession* Create(const ServeSessionOptions& options);

  /// Null when the stream id is unknown.
  ServeSession* Find(std::uint64_t stream_id) const;

  std::size_t size() const;

  /// Stable-order snapshot of the registered sessions (ascending stream
  /// id) for iteration by tests, benchmarks, and drain loops.
  std::vector<ServeSession*> Sessions() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<ServeSession>>
      sessions_;
};

}  // namespace faction

#endif  // FACTION_SERVE_SESSION_REGISTRY_H_
