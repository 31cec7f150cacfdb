//===- CacheServer.h - shared cache service ---------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node-level shared cache service behind tools/proteus-cached (and
/// runnable in-process by tests). One daemon serves every JIT process on a
/// node: a unix-domain socket accepting the fleet/Protocol.h framing, backed
/// by a LocalDirBackend (flat storage + budget eviction), with a
/// fleet-wide in-flight compile table.
///
/// Threading: one accept loop, one reader thread per connection, and Batch
/// sub-lookups fanned across a shared ThreadPool so one client's 64-wide
/// warm-start batch does not serialize behind another's. Responses per
/// connection stay in request order (the reader thread writes them).
///
/// In-flight dedup: Acquire(key) answers Owner to exactly one connection at
/// a time; every other Acquire answers InFlight until the owner Releases or
/// publishes. Claims die with their connection — a client crash mid-compile
/// releases all its claims automatically, so the fleet recovers with one
/// bounded re-acquire instead of waiting on a corpse.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_FLEET_CACHESERVER_H
#define PROTEUS_FLEET_CACHESERVER_H

#include "fleet/LocalBackend.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace proteus {

class ThreadPool;

namespace fleet {

struct CacheServerOptions {
  std::string SocketPath;
  std::string Dir;
  uint64_t BudgetBytes = 0;
  EvictPolicy Policy = EvictPolicy::LRU;
  unsigned Workers = 4;
};

class CacheServer {
public:
  /// Binds the socket and starts the accept loop. Returns null when the
  /// socket cannot be bound (path too long, address in use by a live
  /// daemon, ...).
  static std::unique_ptr<CacheServer> start(CacheServerOptions Options);

  ~CacheServer();

  /// Stops accepting, closes every connection, joins all threads. Idempotent.
  void stop();

  LocalDirBackend &backend() { return *Backend; }

  /// Connections accepted over the server's lifetime.
  uint64_t connectionsAccepted() const {
    return NConnections.load(std::memory_order_relaxed);
  }
  /// Requests served (a Batch counts once plus once per sub-lookup).
  uint64_t requestsServed() const {
    return NRequests.load(std::memory_order_relaxed);
  }

private:
  explicit CacheServer(CacheServerOptions OptionsIn);

  void acceptLoop();
  void serveConnection(int Fd);
  /// Handles one decoded request; ConnId scopes compile claims.
  struct wireResponse;
  void releaseClaimsOf(uint64_t ConnId);

  CacheServerOptions Options;
  std::unique_ptr<LocalDirBackend> Backend;
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  std::thread AcceptThread;
  std::atomic<bool> Stopping{false};

  std::mutex ConnMutex;
  std::vector<std::thread> ConnThreads;
  std::vector<int> ConnFds;

  /// key -> owning connection id. The daemon-side half of the fleet-wide
  /// compile dedup (the lock-file half covers daemon-less processes).
  std::mutex ClaimMutex;
  std::unordered_map<uint64_t, uint64_t> Claims;

  std::atomic<uint64_t> NConnections{0};
  std::atomic<uint64_t> NRequests{0};
  std::atomic<uint64_t> NextConnId{1};
};

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_CACHESERVER_H
