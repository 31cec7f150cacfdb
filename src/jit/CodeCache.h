//===- CodeCache.h - two-level specialization cache -------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The specialization-aware code cache of paper section 3.3: a fast
/// in-memory first level populated afresh per run, backed by a persistent
/// file-storage level (cache-jit-<hash>.o) that survives across program
/// runs and feeds the in-memory level. Keys jointly hash (1) the module
/// identifier bound to source content, (2) the kernel symbol, and (3) the
/// runtime values of specialized arguments and launch bounds — so a source
/// change or a different specialization can never alias a stale entry.
///
/// The paper's section 3.4 roadmap is implemented as well: optional size
/// limits for both levels with LRU eviction, a runtime-informed (LFU)
/// eviction policy that prefers evicting less-frequently-executed
/// specializations, and environment-variable configuration
/// (the PROTEUS_CACHE_* rows of support/Env.h).
///
/// The cache is thread-safe: every public operation is serialized by an
/// internal mutex, so concurrent launch threads and asynchronous compile
/// workers (JitConfig::AsyncMode) can share one instance. Persistent
/// entries are framed with a small integrity header (magic, payload size,
/// integrity hash, execution count, pipeline fingerprint, tier tag —
/// the tiered JIT stores Tier-0 baselines and their promoted Tier-1
/// replacements in the same slot) and written via write-to-temp +
/// atomic-rename, so a crash mid-write can never produce a loadable
/// truncated object: lookup() validates the frame and treats corrupt files
/// as misses (deleting them), forcing a clean recompilation.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_CODECACHE_H
#define PROTEUS_JIT_CODECACHE_H

#include "codegen/Target.h"
#include "fleet/LocalBackend.h"
#include "support/Env.h"
#include "transforms/SpecializeArgs.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace proteus {

/// Everything that uniquely identifies one kernel specialization.
struct SpecializationKey {
  uint64_t ModuleId = 0;          // content hash of the source module
  std::string KernelSymbol;
  GpuArch Arch = GpuArch::AmdGcnSim;
  /// Folded argument values (empty when RCF is disabled).
  std::vector<RuntimeArgValue> FoldedArgs;
  /// Launch-bounds threads (0 when LB specialization is disabled).
  uint32_t LaunchBoundsThreads = 0;
};

/// Deterministic 64-bit key hash (stable across runs — persistent cache
/// file names depend on it).
uint64_t computeSpecializationHash(const SpecializationKey &Key);

/// Compilation tier of a cached object (tiered JIT, PROTEUS_TIER=on).
enum class CodeTier : uint8_t {
  Tier0 = 0, ///< fast baseline compile, awaiting background promotion
  Final = 1, ///< full O3 + launch-bounds pipeline output
};

/// A decoded cache entry: the object plus its tier provenance. The
/// fingerprint identifies the exact pipeline that produced the object so a
/// binary persisted by an older/different pipeline is treated as a miss
/// instead of being served as current.
struct CachedCode {
  std::vector<uint8_t> Object;
  CodeTier Tier = CodeTier::Final;
  uint64_t PipelineFingerprint = 0;
};

/// Cache hit/miss accounting.
struct CodeCacheStats {
  uint64_t MemoryHits = 0;
  uint64_t PersistentHits = 0;
  /// Hits served by the shared cache service (PROTEUS_CACHE_REMOTE=on)
  /// rather than this process's memory level or a local disk read — the
  /// three tiers cost very different latencies, so they are attributed
  /// separately.
  uint64_t RemoteHits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t MemoryEvictions = 0;
  uint64_t PersistentEvictions = 0;
  /// Persistent entries rejected by the integrity check (truncated or
  /// corrupted files, e.g. after a crash mid-write on a pre-atomic-rename
  /// cache); each is deleted and recompiled.
  uint64_t CorruptPersistentEntries = 0;
};

/// Size limits; 0 means unlimited (the paper's default behaviour).
struct CacheLimits {
  uint64_t MaxMemoryBytes = env::defaultOf(env::Knob::CacheMemLimit);
  /// Persistent-level byte budget, covering code objects and tuning
  /// decisions alike.
  uint64_t MaxPersistentBytes = env::defaultOf(env::Knob::CacheDiskLimit);
  /// Eviction order under either limit (paper section 3.4; LFU is the
  /// runtime-informed policy).
  fleet::EvictPolicy Policy =
      env::defaultOf<fleet::EvictPolicy>(env::Knob::CachePolicy);
  /// Shard directories for the persistent level (consistent-hash sharded;
  /// 1 keeps the historical flat layout).
  uint32_t Shards = env::defaultOf<uint32_t>(env::Knob::CacheShards);

  bool operator==(const CacheLimits &) const = default;
};

/// The variant manager's persisted verdict for one (kernel, args, arch,
/// launch shape) tuning key: the winning launch geometry and O3 pipeline
/// knobs, plus provenance (measured time, trial count). Stored alongside
/// the code cache (cache-tune-<hex> files) so a warm fleet never re-races
/// variants it has already tuned — the rocFFT "kernel repo" pattern.
struct TuningDecision {
  uint32_t GridX = 1, GridY = 1, GridZ = 1;
  uint32_t BlockX = 1, BlockY = 1, BlockZ = 1;
  /// O3Preset of the winning pipeline (0 = Full, 1 = Fast).
  uint8_t Preset = 0;
  uint8_t EnableLICM = 1;
  uint64_t UnrollMaxTripCount = 64;
  uint64_t UnrollMaxExpandedInstructions = 4096;
  /// The winner's measured kernel seconds on the replay substrate.
  double ExpectedSeconds = 0;
  /// How many variants were raced to reach this decision.
  uint32_t TrialsRun = 0;
  /// Roofline verdict active when the decision was made, persisted as
  /// BottleneckClass + 1; 0 means no classification was recorded (policy
  /// off, or a decision written before the classifier existed — the old
  /// frame kept this byte zeroed, so both directions decode cleanly).
  uint8_t Bottleneck = 0;
};

/// Deterministic key for a tuning decision: the specialization identity
/// minus the launch geometry (which the decision chooses) — module, kernel,
/// arch, total thread count, and every argument's raw bits.
uint64_t computeTuningKeyHash(uint64_t ModuleId,
                              const std::string &KernelSymbol, GpuArch Arch,
                              uint64_t TotalThreads,
                              const std::vector<uint64_t> &ArgBits);

/// Two-level object cache. The in-memory first level lives here; the
/// persistent level is delegated to a fleet::CacheBackend (a sharded local
/// directory by default, the shared cache service when PROTEUS_CACHE_REMOTE
/// is on) — CodeCache owns the entry framing, the backend owns transport
/// and storage. All persistent access goes through the backend; nothing
/// outside the backend implementations touches the cache directory.
class CodeCache {
public:
  /// \p PersistentDir empty disables the persistent level entirely. The
  /// persistent level goes through \p Backend (the remote fleet client, or
  /// a test double); a null \p Backend builds the default sharded
  /// local-directory backend from \p Limits. \p PersistentDir is recorded
  /// as persistentDir() either way.
  CodeCache(bool UseMemory, bool UsePersistent, std::string PersistentDir,
            CacheLimits Limits = CacheLimits(),
            std::unique_ptr<fleet::CacheBackend> Backend = nullptr);

  ~CodeCache();

  /// LocalBackendOptions derived from \p Limits: shards, the byte budget
  /// (MaxPersistentBytes), the eviction policy, and a frequency extractor
  /// that decodes the execution count from framed code entries (for LFU
  /// victim selection).
  static fleet::LocalBackendOptions backendOptions(const CacheLimits &Limits);

  /// Looks up \p Hash: memory first, then persistent storage (promoting the
  /// entry into memory on a persistent hit, preserving its execution count
  /// for the LFU policy).
  std::optional<std::vector<uint8_t>> lookup(uint64_t Hash);

  /// Like lookup(), but also returns the entry's tier tag and pipeline
  /// fingerprint so the tiered runtime can distinguish a persisted Tier-0
  /// baseline (serve it, then promote) from a final artifact.
  std::optional<CachedCode> lookupEntry(uint64_t Hash);

  /// Inserts a freshly compiled object into both enabled levels, evicting
  /// per policy when a size limit would be exceeded. Re-inserting an
  /// existing hash updates the entry in place (preserving its execution
  /// count) — this is how a Tier-1 promotion replaces the Tier-0 baseline.
  /// A Tier0 insert never downgrades an existing Final entry.
  void insert(uint64_t Hash, const std::vector<uint8_t> &Object,
              CodeTier Tier = CodeTier::Final, uint64_t PipelineFingerprint = 0);

  /// Snapshot of the counters, taken under the cache lock (safe to read
  /// while other threads keep hitting the cache).
  CodeCacheStats stats() const;

  /// Total bytes held by the in-memory level (Table 3's "maximal code cache
  /// size" when no eviction runs).
  uint64_t memoryBytes() const;

  /// Number of in-memory entries.
  size_t memoryEntries() const;

  /// Total bytes in the persistent directory.
  uint64_t persistentBytes() const;

  /// Drops the in-memory level (simulates a fresh process start while
  /// keeping the persistent level warm); execution counts are written back
  /// to the persistent entries so LFU survives restarts.
  void clearMemory();

  /// Deletes cache-jit-*.o files (the "clear on rebuild" workflow), along
  /// with any stale cache-jit-*.o.tmp-* leftovers from interrupted writes,
  /// and cache-tune-* decision records.
  void clearPersistent();

  /// Looks up a persisted tuning decision: in-memory first, then the
  /// persistent cache-tune-<hex> file (promoting it into memory). Corrupt
  /// files are deleted and counted like corrupt code entries.
  std::optional<TuningDecision> lookupTuningDecision(uint64_t Key);

  /// Stores \p D under \p Key in both enabled levels (write-to-temp +
  /// atomic-rename on disk, like code entries).
  void storeTuningDecision(uint64_t Key, const TuningDecision &D);

  const std::string &persistentDir() const { return Dir; }

  /// The persistent backend (null when the persistent level is disabled).
  fleet::CacheBackend *backend() { return Backend.get(); }

  /// Claims the fleet-wide right to compile \p Hash. Owner means the caller
  /// compiles (and must endCompile() on every exit path); InFlightElsewhere
  /// means another thread or process already is — wait with
  /// waitRemoteCompile(). No-op Owner when the persistent level is off
  /// (in-process dedup is JitRuntime's in-flight table).
  fleet::CompileClaim beginCompile(uint64_t Hash);

  /// Releases a claim (idempotent).
  void endCompile(uint64_t Hash);

  /// Waits for the fleet-wide in-flight compile of \p Hash to publish:
  /// polls the cache with exponential backoff, re-attempting the claim
  /// between polls. Returns the published entry, or std::nullopt when this
  /// caller became the owner instead (claim inherited from a dead owner, or
  /// \p TimeoutMs expired — either way the caller must compile and then
  /// endCompile()).
  std::optional<CachedCode> waitRemoteCompile(uint64_t Hash,
                                              unsigned TimeoutMs = 30000);

private:
  struct Entry {
    std::vector<uint8_t> Object;
    uint64_t HitCount = 0;
    CodeTier Tier = CodeTier::Final;
    uint64_t Fingerprint = 0;
    std::list<uint64_t>::iterator LruIt; // position in LruOrder
  };

  void touchEntry(uint64_t Hash, Entry &E);
  /// Serves \p B, what the persistent level holds for \p Hash (Mutex
  /// held): counts a remote or persistent hit and promotes the entry into
  /// memory, or deletes a corrupt entry and returns std::nullopt.
  std::optional<CachedCode> adoptPersistent(uint64_t Hash,
                                            const fleet::Blob &B);
  void insertMemoryEntry(uint64_t Hash, std::vector<uint8_t> Object,
                         uint64_t HitCount, CodeTier Tier,
                         uint64_t Fingerprint);
  void enforceMemoryLimit();
  void writeBackHitCount(uint64_t Hash, uint64_t Count);

  const bool UseMemory;
  const bool UsePersistent;
  const std::string Dir;
  const CacheLimits Limits;
  /// Persistent storage; null iff UsePersistent is false.
  const std::unique_ptr<fleet::CacheBackend> Backend;

  mutable std::mutex Mutex; // guards everything below
  std::unordered_map<uint64_t, Entry> Memory;
  /// Recency order: front = most recent.
  std::list<uint64_t> LruOrder;
  uint64_t MemoryBytesTotal = 0;
  /// In-memory level of the tuning-decision store (cleared by
  /// clearMemory, like code entries; the persistent level backs it).
  std::unordered_map<uint64_t, TuningDecision> Tuning;
  CodeCacheStats Stats;
};

} // namespace proteus

#endif // PROTEUS_JIT_CODECACHE_H
