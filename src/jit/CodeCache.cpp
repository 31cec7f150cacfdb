//===- CodeCache.cpp - two-level specialization cache -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "fleet/Entry.h"
#include "support/BinaryStream.h"
#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace proteus;

uint64_t proteus::computeSpecializationHash(const SpecializationKey &Key) {
  FNV1aHash H;
  H.update(Key.ModuleId);
  H.update(Key.KernelSymbol);
  H.update(static_cast<uint8_t>(Key.Arch));
  H.update(static_cast<uint64_t>(Key.FoldedArgs.size()));
  for (const RuntimeArgValue &V : Key.FoldedArgs) {
    H.update(V.ArgIndex);
    H.update(V.Bits);
  }
  H.update(Key.LaunchBoundsThreads);
  return H.digest();
}

uint64_t proteus::computeTuningKeyHash(uint64_t ModuleId,
                                       const std::string &KernelSymbol,
                                       GpuArch Arch, uint64_t TotalThreads,
                                       const std::vector<uint64_t> &ArgBits) {
  FNV1aHash H;
  H.update(ModuleId);
  H.update(KernelSymbol);
  H.update(static_cast<uint8_t>(Arch));
  H.update(TotalThreads);
  H.update(static_cast<uint64_t>(ArgBits.size()));
  for (uint64_t Bits : ArgBits)
    H.update(Bits);
  return H.digest();
}

// --- Tuning-decision payload -------------------------------------------------
//
// cache-tune-<hex> files hold one TuningDecision as a 64-byte payload in the
// entry frame (fleet/Entry.h), tier Final, fingerprint 0, hit count 0. A
// corrupt file is deleted and treated as "never tuned": a clean re-race.

static_assert(static_cast<uint8_t>(CodeTier::Final) == fleet::EntryTierFinal,
              "the frame's tier word is a CodeTier");

namespace {

constexpr size_t TunePayloadBytes = 64;

std::vector<uint8_t> encodeTuningPayload(const TuningDecision &D) {
  ByteWriter W;
  W.reserve(TunePayloadBytes);
  for (uint32_t V : {D.GridX, D.GridY, D.GridZ, D.BlockX, D.BlockY, D.BlockZ})
    W.writeU32(V);
  W.writeU8(D.Preset);
  W.writeU8(D.EnableLICM);
  W.writeU8(D.Bottleneck);
  W.writeU8(0); // padding to offset 32
  W.writeU32(0);
  W.writeU64(D.UnrollMaxTripCount);
  W.writeU64(D.UnrollMaxExpandedInstructions);
  W.writeF64(D.ExpectedSeconds);
  W.writeU32(D.TrialsRun);
  W.writeU32(0); // padding to 64 bytes
  return W.take();
}

/// Decodes a payload decodeOrDelete found TunePayloadBytes long.
TuningDecision decodeTuningPayload(const std::vector<uint8_t> &P) {
  ByteReader R(P);
  TuningDecision D;
  for (uint32_t *V : {&D.GridX, &D.GridY, &D.GridZ, &D.BlockX, &D.BlockY,
                      &D.BlockZ})
    *V = R.readU32();
  D.Preset = R.readU8();
  D.EnableLICM = R.readU8();
  D.Bottleneck = R.readU8();
  R.readU8(); // padding
  R.readU32();
  D.UnrollMaxTripCount = R.readU64();
  D.UnrollMaxExpandedInstructions = R.readU64();
  D.ExpectedSeconds = R.readF64();
  D.TrialsRun = R.readU32();
  return D;
}

} // namespace

fleet::LocalBackendOptions CodeCache::backendOptions(const CacheLimits &Limits) {
  fleet::LocalBackendOptions BO;
  BO.BudgetBytes = Limits.MaxPersistentBytes;
  BO.Policy = Limits.Policy;
  return BO;
}

CodeCache::CodeCache(bool UseMemory, bool UsePersistent,
                     std::string PersistentDir, CacheLimits Limits,
                     std::unique_ptr<fleet::CacheBackend> Backend)
    : UseMemory(UseMemory),
      UsePersistent(UsePersistent && !PersistentDir.empty()),
      Limits(Limits),
      Backend(!this->UsePersistent ? nullptr
              : Backend            ? std::move(Backend)
                                   : std::make_unique<fleet::LocalDirBackend>(
                                         std::move(PersistentDir),
                                         backendOptions(Limits))) {}

CodeCache::~CodeCache() = default;

std::optional<fleet::EntryInfo>
CodeCache::decodeOrDelete(fleet::BlobKind Kind, uint64_t Key,
                          std::vector<uint8_t> &Bytes) {
  std::optional<fleet::EntryInfo> Info = fleet::decodeEntry(Bytes);
  if (Info &&
      (Kind == fleet::BlobKind::Code || Bytes.size() == TunePayloadBytes))
    return Info;
  // Truncated/corrupted entry (e.g. a crash mid-write, or a file from an
  // older frame): delete it and report a miss, so the JIT recompiles (or
  // re-tunes) instead of loading garbage.
  ++Stats.CorruptPersistentEntries;
  trace::instant("cache.corrupt", "cache");
  Backend->remove(Kind, Key);
  return std::nullopt;
}

std::optional<TuningDecision> CodeCache::lookupTuningDecision(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (UseMemory) {
    auto It = Tuning.find(Key);
    if (It != Tuning.end())
      return It->second;
  }
  if (!UsePersistent)
    return std::nullopt;
  auto B = Backend->lookup(fleet::BlobKind::Tune, Key);
  if (!B || !decodeOrDelete(fleet::BlobKind::Tune, Key, B->Bytes))
    return std::nullopt;
  TuningDecision D = decodeTuningPayload(B->Bytes);
  if (UseMemory)
    Tuning.emplace(Key, D);
  return D;
}

void CodeCache::storeTuningDecision(uint64_t Key, const TuningDecision &D) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (UseMemory)
    Tuning[Key] = D;
  if (UsePersistent)
    Backend->publish(fleet::BlobKind::Tune, Key,
                     fleet::encodeEntry(encodeTuningPayload(D), {}));
}

void CodeCache::touchEntry(uint64_t Hash, Entry &E) {
  ++E.HitCount;
  LruOrder.erase(E.LruIt);
  LruOrder.push_front(Hash);
  E.LruIt = LruOrder.begin();
}

void CodeCache::insertMemoryEntry(uint64_t Hash, std::vector<uint8_t> Object,
                                  uint64_t HitCount, CodeTier Tier,
                                  uint64_t Fingerprint) {
  Entry E;
  E.Object = std::move(Object);
  E.HitCount = HitCount;
  E.Tier = Tier;
  E.Fingerprint = Fingerprint;
  LruOrder.push_front(Hash);
  E.LruIt = LruOrder.begin();
  MemoryBytesTotal += E.Object.size();
  Memory.emplace(Hash, std::move(E));
  enforceMemoryLimit();
}

std::optional<std::vector<uint8_t>> CodeCache::lookup(uint64_t Hash) {
  auto Entry = lookupEntry(Hash);
  if (!Entry)
    return std::nullopt;
  return std::move(Entry->Object);
}

std::optional<CachedCode> CodeCache::adoptPersistent(uint64_t Hash,
                                                     fleet::Blob &B) {
  std::optional<fleet::EntryInfo> Info =
      decodeOrDelete(fleet::BlobKind::Code, Hash, B.Bytes);
  if (!Info)
    return std::nullopt;
  // Tier attribution: a daemon round-trip costs very differently from a
  // local disk read, so the fleet service's hits get their own counter.
  if (B.Remote) {
    ++Stats.RemoteHits;
    trace::instant("cache.hit.remote", "cache");
  } else {
    ++Stats.PersistentHits;
    trace::instant("cache.hit.persistent", "cache");
  }
  const CodeTier Tier = static_cast<CodeTier>(Info->Tier);
  if (UseMemory && !Memory.count(Hash)) {
    // Preserve the execution count across the promotion so the LFU policy
    // is not biased against entries that round-tripped through the
    // persistent level; this access counts too.
    trace::instant("cache.promote", "cache");
    insertMemoryEntry(Hash, B.Bytes, Info->HitCount + 1, Tier,
                      Info->Fingerprint);
  }
  return CachedCode{std::move(B.Bytes), Tier, Info->Fingerprint};
}

std::optional<CachedCode> CodeCache::lookupEntry(uint64_t Hash) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (UseMemory) {
    auto It = Memory.find(Hash);
    if (It != Memory.end()) {
      ++Stats.MemoryHits;
      trace::instant("cache.hit.memory", "cache");
      touchEntry(Hash, It->second);
      return CachedCode{It->second.Object, It->second.Tier,
                        It->second.Fingerprint};
    }
  }
  if (UsePersistent)
    if (auto B = Backend->lookup(fleet::BlobKind::Code, Hash))
      if (std::optional<CachedCode> CC = adoptPersistent(Hash, *B))
        return CC;
  ++Stats.Misses;
  trace::instant("cache.miss", "cache");
  return std::nullopt;
}

void CodeCache::insert(uint64_t Hash, const std::vector<uint8_t> &Object,
                       CodeTier Tier, uint64_t PipelineFingerprint) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Stats.Insertions;
  trace::instant("cache.insert", "cache");
  uint64_t HitCount = 0;
  if (UseMemory) {
    auto It = Memory.find(Hash);
    if (It == Memory.end()) {
      insertMemoryEntry(Hash, Object, 0, Tier, PipelineFingerprint);
    } else if (It->second.Tier == CodeTier::Final && Tier == CodeTier::Tier0) {
      // Never downgrade: a straggling Tier-0 result must not replace the
      // promoted artifact a racing Tier-1 compile already installed.
      return;
    } else {
      // In-place update (Tier-1 promotion path): keep the execution count
      // and recency position; only the object and tier provenance change.
      MemoryBytesTotal += Object.size();
      MemoryBytesTotal -= It->second.Object.size();
      It->second.Object = Object;
      It->second.Tier = Tier;
      It->second.Fingerprint = PipelineFingerprint;
      HitCount = It->second.HitCount;
      enforceMemoryLimit();
    }
  }
  if (UsePersistent) {
    if (Tier == CodeTier::Tier0) {
      // Same downgrade guard for the on-disk level (the memory level may be
      // disabled, so check the published entry's own tier tag).
      if (auto B = Backend->lookup(fleet::BlobKind::Code, Hash))
        if (auto Info = fleet::decodeEntry(B->Bytes))
          if (Info->Tier == fleet::EntryTierFinal)
            return;
    }
    Backend->publish(fleet::BlobKind::Code, Hash,
                     fleet::encodeEntry(Object, {HitCount,
                                                 static_cast<uint8_t>(Tier),
                                                 PipelineFingerprint}));
  }
}

void CodeCache::writeBackHitCount(uint64_t Hash, uint64_t Count) {
  if (!UsePersistent || Count == 0)
    return;
  // The count sits outside the integrity hash: patch the verified frame in
  // place and republish it, payload untouched.
  auto B = Backend->lookup(fleet::BlobKind::Code, Hash);
  if (B && fleet::setEntryHitCount(B->Bytes, Count))
    Backend->publish(fleet::BlobKind::Code, Hash, B->Bytes);
}

void CodeCache::enforceMemoryLimit() {
  if (!Limits.MaxMemoryBytes)
    return;
  while (MemoryBytesTotal > Limits.MaxMemoryBytes && Memory.size() > 1) {
    uint64_t Victim;
    if (Limits.Policy == fleet::EvictPolicy::LFU) {
      // Runtime-informed: evict the least-executed specialization,
      // breaking ties toward the least recently used (list back).
      Victim = LruOrder.back();
      uint64_t BestCount = Memory.at(Victim).HitCount;
      for (auto It = LruOrder.rbegin(); It != LruOrder.rend(); ++It) {
        uint64_t C = Memory.at(*It).HitCount;
        if (C < BestCount) {
          BestCount = C;
          Victim = *It;
        }
      }
    } else {
      Victim = LruOrder.back();
    }
    auto It = Memory.find(Victim);
    writeBackHitCount(Victim, It->second.HitCount);
    MemoryBytesTotal -= It->second.Object.size();
    LruOrder.erase(It->second.LruIt);
    Memory.erase(It);
    ++Stats.MemoryEvictions;
    trace::instant("cache.evict.memory", "cache");
  }
}

CodeCacheStats CodeCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CodeCacheStats S = Stats;
  // Budget eviction happens inside the backend (it owns the storage);
  // merge its count into the historical counter.
  if (Backend)
    S.PersistentEvictions += Backend->stats().Evictions;
  return S;
}

uint64_t CodeCache::memoryBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return MemoryBytesTotal;
}

size_t CodeCache::memoryEntries() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Memory.size();
}

uint64_t CodeCache::persistentBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return UsePersistent ? Backend->totalBytes() : 0;
}

void CodeCache::clearMemory() {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Write execution counts back so a "fresh process" still sees
  // runtime-informed frequencies at the persistent level.
  for (const auto &[Hash, E] : Memory)
    writeBackHitCount(Hash, E.HitCount);
  Memory.clear();
  LruOrder.clear();
  MemoryBytesTotal = 0;
  Tuning.clear();
}

void CodeCache::clearPersistent() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!UsePersistent)
    return;
  Backend->clear();
}

fleet::CompileClaim CodeCache::beginCompile(uint64_t Hash) {
  if (!Backend)
    return fleet::CompileClaim::Owner;
  return Backend->beginCompile(Hash);
}

void CodeCache::endCompile(uint64_t Hash) {
  if (Backend)
    Backend->endCompile(Hash);
}

std::optional<CachedCode> CodeCache::waitRemoteCompile(uint64_t Hash,
                                                       unsigned TimeoutMs) {
  if (!Backend)
    return std::nullopt; // no fleet level: the caller owns the compile
  using Clock = std::chrono::steady_clock;
  const auto Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  auto Backoff = std::chrono::microseconds(200);
  // Poll the backend directly (not lookupEntry) so the wait loop's
  // intermediate misses don't inflate this cache's miss statistics.
  // A corrupt publish is deleted; the re-acquired claim below then makes
  // this caller the recovering compiler.
  auto TryAdopt = [&]() -> std::optional<CachedCode> {
    auto B = Backend->lookup(fleet::BlobKind::Code, Hash);
    if (!B)
      return std::nullopt;
    std::lock_guard<std::mutex> Lock(Mutex);
    return adoptPersistent(Hash, *B);
  };
  for (;;) {
    if (std::optional<CachedCode> CC = TryAdopt())
      return CC;
    // Between polls, retry the claim: if the previous owner died (crashed
    // client, stale lock), this caller inherits the compile.
    if (Backend->beginCompile(Hash) == fleet::CompileClaim::Owner) {
      // Double-checked claim: the owner may have published and released
      // between this caller's poll above and the claim retry. Without
      // this re-lookup the waiter would win the freed claim and recompile
      // an entry that is already in the store.
      if (std::optional<CachedCode> CC = TryAdopt()) {
        Backend->endCompile(Hash);
        return CC;
      }
      return std::nullopt;
    }
    if (Clock::now() >= Deadline)
      return std::nullopt;
    std::this_thread::sleep_for(Backoff);
    Backoff = std::min(Backoff * 2, decltype(Backoff)(10000));
  }
}
