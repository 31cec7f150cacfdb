//===- LocalBackend.h - sharded on-disk cache backend -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-node storage backend: framed blobs as files in a directory
/// tree, consistent-hash sharded across K shard subdirectories (K = 1 keeps
/// every file at the top level, byte-compatible with the pre-fleet cache).
/// A size budget triggers LRU/LFU eviction that accounts code objects
/// (cache-jit-<hex>.o) and tuning decisions (cache-tune-<hex>) alike — the
/// fix for decision files growing a "size-limited" cache without bound.
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
#include "fleet/ShardIndex.h"

#include <atomic>
#include <mutex>

namespace proteus {
namespace fleet {

struct LocalBackendOptions {
  /// Shard directories under the root (PROTEUS_CACHE_SHARDS). 1 = flat.
  uint32_t Shards = 1;
  /// Total on-disk byte budget across shards, code + tune files
  /// (PROTEUS_CACHE_DISK_LIMIT); 0 = unlimited.
  uint64_t BudgetBytes = 0;
  EvictPolicy Policy = EvictPolicy::LRU;
  /// Frame-frequency decoder for LFU victim selection (null → LRU order).
  FrequencyExtractor FreqOf;
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
  std::string describe() const override;
  BackendStats stats() const override;

  const std::string &rootDir() const { return Root; }

  /// Path of the entry file for (\p Kind, \p Key) — exposed for tests and
  /// the crash-injection battery; production callers go through the
  /// CacheBackend interface only.
  std::string pathFor(BlobKind Kind, uint64_t Key) const;

private:
  std::string shardDir(uint64_t Key) const;
  std::string lockPathFor(uint64_t Key) const;
  /// Every directory that may hold entries (root + shard subdirectories).
  std::vector<std::string> allDirs() const;
  void enforceBudget();

  const std::string Root;
  const LocalBackendOptions Options;
  const ShardIndex Index;

  /// Serializes eviction scans (lookup/publish themselves are lock-free
  /// with respect to each other — the filesystem provides atomicity).
  std::mutex EvictMutex;

  std::atomic<uint64_t> NLookups{0}, NHits{0}, NMisses{0}, NPublishes{0},
      NPublishBytes{0}, NEvictions{0}, NDedupHits{0};
};

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_LOCALBACKEND_H
