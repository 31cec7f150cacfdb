//===- RemoteBackend.h - shared cache service client ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CacheBackend speaking the fleet protocol to a shared cache service
/// (tools/proteus-cached), with two properties the single-process backends
/// don't need:
///
///   * Request batching. Concurrent lookups from many launch threads are
///     group-committed: the first thread to arrive becomes the flusher,
///     drains every queued lookup into one Batch frame, and distributes the
///     answers. A K-thread warm-start storm costs O(1) round-trips per
///     flush window instead of K — the amortization BENCH_fleet.json's
///     latency gate measures.
///
///   * Fallback. When the daemon is unreachable (never started, crashed
///     mid-publish), operations divert to an embedded LocalDirBackend over
///     the same cache directory — sticky, counted in stats().FallbackOps.
///     The JIT never blocks on a dead service; it degrades to the exact
///     pre-fleet behavior.
///
/// Fleet-level accounting lands on metrics::processRegistry():
/// fleetcache.hits / fleetcache.misses / fleetcache.remote_dedup /
/// fleetcache.publish_bytes / fleetcache.fallback_ops and the
/// fleetcache.lookup_seconds timer.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_FLEET_REMOTEBACKEND_H
#define PROTEUS_FLEET_REMOTEBACKEND_H

#include "fleet/LocalBackend.h"
#include "fleet/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

namespace proteus {
namespace fleet {

struct RemoteBackendOptions {
  std::string SocketPath;
  /// Directory for the embedded fallback backend (the process's cache dir).
  std::string FallbackDir;
  LocalBackendOptions Fallback;
  /// Per-RPC socket timeout.
  unsigned TimeoutMs = 2000;
};

class RemoteCacheBackend final : public CacheBackend {
public:
  explicit RemoteCacheBackend(RemoteBackendOptions Options);
  ~RemoteCacheBackend() override;

  std::optional<Blob> lookup(BlobKind Kind, uint64_t Key) override;
  bool publish(BlobKind Kind, uint64_t Key,
               const std::vector<uint8_t> &Bytes) override;
  bool remove(BlobKind Kind, uint64_t Key) override;
  void clear() override;
  uint64_t totalBytes() override;
  CompileClaim beginCompile(uint64_t Key) override;
  void endCompile(uint64_t Key) override;
  BackendStats stats() const override;

  /// True while the daemon answered the most recent RPC (false once the
  /// backend has diverted to the local fallback).
  bool connected() const { return !DaemonDown.load(std::memory_order_relaxed); }

  /// Stats RPC passthrough (daemon-side counters), empty when unreachable.
  std::vector<std::pair<std::string, uint64_t>> remoteStats();

private:
  /// One queued lookup awaiting the next batch flush.
  struct PendingLookup {
    BlobKind Kind;
    uint64_t Key;
    bool Done = false;
    bool Hit = false;
    std::vector<uint8_t> Bytes;
  };

  /// Sends one request and reads its response over the shared connection.
  /// Returns std::nullopt on transport failure (and marks the daemon down —
  /// subsequent operations divert to the fallback).
  std::optional<wire::Response> rpc(const wire::Request &R);

  bool ensureConnectedLocked();
  void dropConnectionLocked();

  LocalDirBackend &fallback();

  RemoteBackendOptions Options;
  std::unique_ptr<LocalDirBackend> FallbackBackend;

  /// Serializes use of the connection (one request/response in flight).
  std::mutex ConnMutex;
  int Fd = -1;

  /// Group-commit lookup combiner.
  std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<PendingLookup>> Pending;
  bool FlusherActive = false;

  std::atomic<bool> DaemonDown{false};

  std::atomic<uint64_t> NLookups{0}, NHits{0}, NMisses{0}, NPublishes{0},
      NPublishBytes{0}, NDedupHits{0}, NFallbackOps{0}, NBatchedLookups{0};
};

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_REMOTEBACKEND_H
