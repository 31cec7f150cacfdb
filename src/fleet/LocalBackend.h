//===- LocalBackend.h - on-disk cache backend -------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-node storage backend: framed blobs as files in one flat
/// directory, the paper's cache layout. The daemon, daemon-less processes
/// and a daemon client's outage fallback all open the same directory this
/// way, so they find each other's entries and claims with no setting to
/// agree on. A size budget triggers LRU/LFU eviction that accounts code
/// objects (cache-jit-<hex>.o) and tuning decisions (cache-tune-<hex>)
/// alike — the fix for decision files growing a "size-limited" cache
/// without bound. LFU reads each entry's hit count through fleet/Entry.h,
/// so every holder of the directory (daemon included) orders victims the
/// same way.
///
/// Cross-process compile claims are O_CREAT|O_EXCL lock files
/// (cache-lock-<hex>, holding the owner pid): the winner compiles, everyone
/// else sees InFlightElsewhere and waits for the publish. A crashed owner
/// leaves a stale lock; claims older than Options::StaleLockMs are stolen,
/// so recovery costs one bounded wait and exactly one recompile.
///
/// Eviction never corrupts a reader: files are replaced by atomic rename
/// and removed by unlink, so a process mid-read keeps its (complete) bytes
/// under POSIX semantics — an evicted entry is re-published on the next
/// miss, never half-served.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_FLEET_LOCALBACKEND_H
#define PROTEUS_FLEET_LOCALBACKEND_H

#include "fleet/CacheBackend.h"

#include <atomic>
#include <mutex>
#include <string>

namespace proteus {
namespace fleet {

struct LocalBackendOptions {
  /// Total on-disk byte budget, code + tune files
  /// (PROTEUS_CACHE_DISK_LIMIT); 0 = unlimited.
  uint64_t BudgetBytes = 0;
  EvictPolicy Policy = EvictPolicy::LRU;
  /// Age after which an unreleased compile claim is considered abandoned
  /// (owner crashed) and may be stolen.
  unsigned StaleLockMs = 2000;
};

class LocalDirBackend final : public CacheBackend {
public:
  LocalDirBackend(std::string RootDir, LocalBackendOptions Options);

  std::optional<Blob> lookup(BlobKind Kind, uint64_t Key) override;
  bool publish(BlobKind Kind, uint64_t Key,
               const std::vector<uint8_t> &Bytes) override;
  bool remove(BlobKind Kind, uint64_t Key) override;
  void clear() override;
  uint64_t totalBytes() override;
  CompileClaim beginCompile(uint64_t Key) override;
  void endCompile(uint64_t Key) override;
  BackendStats stats() const override;

private:
  std::string pathFor(BlobKind Kind, uint64_t Key) const;
  std::string lockPathFor(uint64_t Key) const;
  void enforceBudget();

  const std::string Root;
  const LocalBackendOptions Options;

  /// Serializes eviction scans (lookup/publish themselves are lock-free
  /// with respect to each other — the filesystem provides atomicity).
  std::mutex EvictMutex;

  std::atomic<uint64_t> NLookups{0}, NHits{0}, NMisses{0}, NPublishes{0},
      NPublishBytes{0}, NEvictions{0}, NDedupHits{0};
};

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_LOCALBACKEND_H
