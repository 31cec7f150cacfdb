//===- CacheBackend.h - transport-agnostic cache storage --------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage interface behind the fleet-scale code cache. CodeCache keeps
/// the entry framing (integrity header, tier tag, fingerprint) and the
/// in-memory first level; everything persistent goes through a CacheBackend,
/// which stores opaque framed blobs keyed by (kind, 64-bit key):
///
///   * LocalDirBackend — the single-node fast path: a directory tree,
///     consistent-hash sharded across K shard subdirectories, with LFU /
///     size-budget eviction that covers cache-jit-*.o objects and
///     cache-tune-* decision files alike, and lock-file based cross-process
///     compile claims.
///   * RemoteCacheBackend — a client of the shared cache service
///     (tools/proteus-cached or an in-process fleet::CacheServer) speaking
///     the compact length-prefixed protocol of fleet/Protocol.h, with
///     request batching and a local-directory fallback for daemon outages.
///
/// The compile-claim trio (beginCompile / endCompile, plus CodeCache's
/// waitRemoteCompile polling loop on top) is the fleet-wide in-flight dedup:
/// exactly one process compiles a given specialization hash at a time;
/// later requesters wait for the publish or inherit the claim when the
/// owner dies (stale lock / closed connection).
///
/// Backends are thread-safe; every operation may be called concurrently
/// from launch threads and async compile workers. Fleet-level accounting
/// (fleetcache.hits / misses / remote_dedup / publish_bytes /
/// lookup_seconds) lands on metrics::processRegistry(), because one process
/// may host several CodeCache instances sharing one node-level service.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_FLEET_CACHEBACKEND_H
#define PROTEUS_FLEET_CACHEBACKEND_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace proteus {
namespace fleet {

/// What a blob stores. Kinds live in disjoint key spaces and map to the
/// historical on-disk names (cache-jit-<hex>.o / cache-tune-<hex>), so a
/// pre-fleet cache directory is readable as a 1-shard local backend.
enum class BlobKind : uint8_t {
  Code = 0, ///< framed compiled-object entry (cache-jit-<hex>.o)
  Tune = 1, ///< framed tuning-decision record (cache-tune-<hex>)
};

const char *blobKindName(BlobKind K);

/// A lookup result: the framed bytes plus the tier that served them, so
/// CodeCache can count a daemon-served hit (RemoteHits) apart from a local
/// disk read (PersistentHits) — the two cost very different latencies and
/// BENCH_fleet.json asserts the tier it actually exercised.
struct Blob {
  std::vector<uint8_t> Bytes;
  bool Remote = false;
};

/// Outcome of a fleet-wide compile claim.
enum class CompileClaim : uint8_t {
  Owner,             ///< this caller must compile and publish
  InFlightElsewhere, ///< another thread/process/daemon client is compiling
};

/// Backend-level accounting (monotonic; snapshot by value).
struct BackendStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Publishes = 0;
  uint64_t PublishBytes = 0;
  /// Files evicted by the size budget (code and tune entries alike).
  uint64_t Evictions = 0;
  /// beginCompile calls that found the key already claimed fleet-wide.
  uint64_t DedupHits = 0;
  /// Operations served by the local fallback because the remote service
  /// was unreachable (always 0 on the local backend).
  uint64_t FallbackOps = 0;
  /// Lookup batches that carried more than one request in one round-trip.
  uint64_t BatchedLookups = 0;
};

/// Abstract persistent blob store. All methods are thread-safe.
class CacheBackend {
public:
  virtual ~CacheBackend();

  /// Returns the framed bytes for (\p Kind, \p Key), or nullopt on a miss.
  /// A hit refreshes the entry's recency (LRU touch).
  virtual std::optional<Blob> lookup(BlobKind Kind, uint64_t Key) = 0;

  /// Stores \p Bytes under (\p Kind, \p Key), replacing any existing entry,
  /// crash-safely (write-to-temp + atomic-rename — a reader never observes
  /// a partial entry). May evict other entries to satisfy the size budget.
  virtual bool publish(BlobKind Kind, uint64_t Key,
                       const std::vector<uint8_t> &Bytes) = 0;

  /// Deletes the entry for (\p Kind, \p Key) if present (corrupt-entry
  /// cleanup). Returns true when the entry no longer exists.
  virtual bool remove(BlobKind Kind, uint64_t Key) = 0;

  /// Removes every cache entry (code, tune, stale temp/lock leftovers).
  virtual void clear() = 0;

  /// Total bytes currently held by cache entries (code + tune, across all
  /// shards) — the number the size budget constrains.
  virtual uint64_t totalBytes() = 0;

  /// Claims the fleet-wide right to compile \p Key. Owner means this caller
  /// compiles; InFlightElsewhere means someone else is already on it and
  /// the caller should wait for the publish (CodeCache::waitRemoteCompile).
  virtual CompileClaim beginCompile(uint64_t Key) = 0;

  /// Releases a claim obtained from beginCompile (idempotent; called on
  /// every compile exit path, success or failure).
  virtual void endCompile(uint64_t Key) = 0;

  /// Human-readable description for logs ("dir:<path> shards=K" or
  /// "socket:<path>").
  virtual std::string describe() const = 0;

  /// Snapshot of the backend counters.
  virtual BackendStats stats() const = 0;
};

/// Eviction order under a size budget; also the jit code cache's memory
/// level policy (CacheLimits::Policy, PROTEUS_CACHE_POLICY).
enum class EvictPolicy : uint8_t {
  LRU, ///< oldest write/touch time first
  LFU, ///< least-frequently-executed first (frequency via FreqOf), ties by
       ///< recency; entries without a frequency (tune records) order by
       ///< recency among themselves
};

/// Extracts an execution-frequency word from a framed blob for LFU
/// eviction, or 0 when the frame carries none. CodeCache supplies a
/// decoder for its entry header; backends never parse frames themselves.
using FrequencyExtractor =
    std::function<uint64_t(BlobKind, const std::vector<uint8_t> &)>;

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_CACHEBACKEND_H
