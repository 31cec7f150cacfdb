//===- CodeCache.cpp - two-level specialization cache -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
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

// --- Persistent entry framing ------------------------------------------------
//
// cache-jit-<hash>.o files carry a fixed 48-byte header ahead of the object
// payload so that lookup() can reject truncated or corrupted files (a crash
// mid-write, bit rot, manual tampering) instead of loading garbage:
//
//   [0..8)   magic "PJITCC2\0"
//   [8..16)  payload size (LE u64)
//   [16..24) integrity FNV-1a hash (LE u64) over payload bytes, then the
//            tier tag, then the pipeline fingerprint — so a flipped tier
//            byte is as detectable as a flipped payload byte
//   [24..32) execution (hit) count — outside the integrity hash so the LFU
//            policy's counts can be written back without re-hashing
//   [32..40) pipeline fingerprint (LE u64)
//   [40..48) tier tag (LE u64; 0 = Tier-0 baseline, 1 = final)
//   [48..)   object payload
//
// "PJITCC1\0" files from older builds fail the magic check and are deleted
// like any other corrupt entry — a clean forced recompile on upgrade.

namespace {

constexpr char EntryMagic[8] = {'P', 'J', 'I', 'T', 'C', 'C', '2', '\0'};
constexpr size_t EntryHeaderBytes = 48;

void putU64(std::vector<uint8_t> &Buf, size_t Offset, uint64_t V) {
  std::memcpy(Buf.data() + Offset, &V, sizeof(V));
}

uint64_t getU64(const std::vector<uint8_t> &Buf, size_t Offset) {
  uint64_t V;
  std::memcpy(&V, Buf.data() + Offset, sizeof(V));
  return V;
}

uint64_t integrityHash(const std::vector<uint8_t> &Payload, CodeTier Tier,
                       uint64_t Fingerprint) {
  trace::Span Sp("cache.integrity_hash", "cache");
  FNV1aHash H;
  H.updateBytes(Payload.data(), Payload.size());
  H.update(static_cast<uint8_t>(Tier));
  H.update(Fingerprint);
  return H.digest();
}

std::vector<uint8_t> encodeEntry(const std::vector<uint8_t> &Payload,
                                 uint64_t HitCount, CodeTier Tier,
                                 uint64_t Fingerprint) {
  trace::Span Sp("cache.encode", "cache");
  std::vector<uint8_t> Buf(EntryHeaderBytes + Payload.size());
  std::memcpy(Buf.data(), EntryMagic, sizeof(EntryMagic));
  putU64(Buf, 8, Payload.size());
  putU64(Buf, 16, integrityHash(Payload, Tier, Fingerprint));
  putU64(Buf, 24, HitCount);
  putU64(Buf, 32, Fingerprint);
  putU64(Buf, 40, static_cast<uint64_t>(Tier));
  std::memcpy(Buf.data() + EntryHeaderBytes, Payload.data(), Payload.size());
  return Buf;
}

struct DecodedEntry {
  std::vector<uint8_t> Payload;
  uint64_t HitCount = 0;
  CodeTier Tier = CodeTier::Final;
  uint64_t Fingerprint = 0;
};

// --- Tuning-decision framing -------------------------------------------------
//
// cache-tune-<hex> files persist one TuningDecision in a fixed 80-byte
// frame: magic "PJITTD1\0", an FNV-1a integrity hash over the 64-byte
// payload, then the payload itself. Corrupt or truncated files are deleted
// and treated as "never tuned", forcing a clean re-race.

constexpr char TuneMagic[8] = {'P', 'J', 'I', 'T', 'T', 'D', '1', '\0'};
constexpr size_t TunePayloadBytes = 64;
constexpr size_t TuneFileBytes = 16 + TunePayloadBytes;

void putU32(std::vector<uint8_t> &Buf, size_t Offset, uint32_t V) {
  std::memcpy(Buf.data() + Offset, &V, sizeof(V));
}

uint32_t getU32(const std::vector<uint8_t> &Buf, size_t Offset) {
  uint32_t V;
  std::memcpy(&V, Buf.data() + Offset, sizeof(V));
  return V;
}

std::vector<uint8_t> encodeTuningPayload(const TuningDecision &D) {
  std::vector<uint8_t> P(TunePayloadBytes, 0);
  putU32(P, 0, D.GridX);
  putU32(P, 4, D.GridY);
  putU32(P, 8, D.GridZ);
  putU32(P, 12, D.BlockX);
  putU32(P, 16, D.BlockY);
  putU32(P, 20, D.BlockZ);
  P[24] = D.Preset;
  P[25] = D.EnableLICM;
  P[26] = D.Bottleneck;
  putU64(P, 32, D.UnrollMaxTripCount);
  putU64(P, 40, D.UnrollMaxExpandedInstructions);
  uint64_t SecondsBits;
  std::memcpy(&SecondsBits, &D.ExpectedSeconds, sizeof(SecondsBits));
  putU64(P, 48, SecondsBits);
  putU32(P, 56, D.TrialsRun);
  return P;
}

TuningDecision decodeTuningPayload(const std::vector<uint8_t> &P) {
  TuningDecision D;
  D.GridX = getU32(P, 0);
  D.GridY = getU32(P, 4);
  D.GridZ = getU32(P, 8);
  D.BlockX = getU32(P, 12);
  D.BlockY = getU32(P, 16);
  D.BlockZ = getU32(P, 20);
  D.Preset = P[24];
  D.EnableLICM = P[25];
  D.Bottleneck = P[26];
  D.UnrollMaxTripCount = getU64(P, 32);
  D.UnrollMaxExpandedInstructions = getU64(P, 40);
  uint64_t SecondsBits = getU64(P, 48);
  std::memcpy(&D.ExpectedSeconds, &SecondsBits, sizeof(D.ExpectedSeconds));
  D.TrialsRun = getU32(P, 56);
  return D;
}

std::vector<uint8_t> encodeTuningFile(const TuningDecision &D) {
  std::vector<uint8_t> Payload = encodeTuningPayload(D);
  std::vector<uint8_t> Buf(TuneFileBytes);
  std::memcpy(Buf.data(), TuneMagic, sizeof(TuneMagic));
  FNV1aHash H;
  H.updateBytes(Payload.data(), Payload.size());
  putU64(Buf, 8, H.digest());
  std::memcpy(Buf.data() + 16, Payload.data(), Payload.size());
  return Buf;
}

std::optional<TuningDecision>
decodeTuningFile(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() != TuneFileBytes)
    return std::nullopt;
  if (std::memcmp(Bytes.data(), TuneMagic, sizeof(TuneMagic)) != 0)
    return std::nullopt;
  std::vector<uint8_t> Payload(Bytes.begin() + 16, Bytes.end());
  FNV1aHash H;
  H.updateBytes(Payload.data(), Payload.size());
  if (getU64(Bytes, 8) != H.digest())
    return std::nullopt;
  return decodeTuningPayload(Payload);
}

std::optional<DecodedEntry> decodeEntry(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() < EntryHeaderBytes)
    return std::nullopt;
  if (std::memcmp(Bytes.data(), EntryMagic, sizeof(EntryMagic)) != 0)
    return std::nullopt;
  uint64_t Size = getU64(Bytes, 8);
  if (Size != Bytes.size() - EntryHeaderBytes)
    return std::nullopt;
  uint64_t TierWord = getU64(Bytes, 40);
  if (TierWord > static_cast<uint64_t>(CodeTier::Final))
    return std::nullopt;
  DecodedEntry D;
  D.Payload.assign(Bytes.begin() + EntryHeaderBytes, Bytes.end());
  D.Tier = static_cast<CodeTier>(TierWord);
  D.Fingerprint = getU64(Bytes, 32);
  if (getU64(Bytes, 16) != integrityHash(D.Payload, D.Tier, D.Fingerprint))
    return std::nullopt;
  D.HitCount = getU64(Bytes, 24);
  return D;
}

} // namespace

fleet::LocalBackendOptions CodeCache::backendOptions(const CacheLimits &Limits) {
  fleet::LocalBackendOptions BO;
  BO.BudgetBytes = Limits.MaxPersistentBytes;
  BO.Policy = Limits.Policy;
  // LFU victim selection needs each entry's execution count; only CodeCache
  // knows the frame layout, so it hands the backend a decoder instead of
  // the backend parsing frames itself.
  BO.FreqOf = [](fleet::BlobKind Kind,
                 const std::vector<uint8_t> &Bytes) -> uint64_t {
    if (Kind != fleet::BlobKind::Code || Bytes.size() < EntryHeaderBytes)
      return 0;
    if (std::memcmp(Bytes.data(), EntryMagic, sizeof(EntryMagic)) != 0)
      return 0;
    return getU64(Bytes, 24);
  };
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

std::optional<TuningDecision> CodeCache::lookupTuningDecision(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (UseMemory) {
    auto It = Tuning.find(Key);
    if (It != Tuning.end())
      return It->second;
  }
  if (UsePersistent) {
    if (auto B = Backend->lookup(fleet::BlobKind::Tune, Key)) {
      if (auto D = decodeTuningFile(B->Bytes)) {
        if (UseMemory)
          Tuning.emplace(Key, *D);
        return D;
      }
      // Corrupt decision: delete and re-tune, mirroring corrupt code
      // entries.
      ++Stats.CorruptPersistentEntries;
      trace::instant("cache.corrupt", "cache");
      Backend->remove(fleet::BlobKind::Tune, Key);
    }
  }
  return std::nullopt;
}

void CodeCache::storeTuningDecision(uint64_t Key, const TuningDecision &D) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (UseMemory)
    Tuning[Key] = D;
  if (UsePersistent)
    Backend->publish(fleet::BlobKind::Tune, Key, encodeTuningFile(D));
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
                                                     const fleet::Blob &B) {
  std::optional<DecodedEntry> Decoded = decodeEntry(B.Bytes);
  if (!Decoded) {
    // Truncated/corrupted entry (e.g. a crash mid-write): delete it and
    // report a miss so the JIT recompiles instead of loading garbage.
    ++Stats.CorruptPersistentEntries;
    trace::instant("cache.corrupt", "cache");
    Backend->remove(fleet::BlobKind::Code, Hash);
    return std::nullopt;
  }
  // Tier attribution: a daemon round-trip costs very differently from a
  // local disk read, so the fleet service's hits get their own counter.
  if (B.Remote) {
    ++Stats.RemoteHits;
    trace::instant("cache.hit.remote", "cache");
  } else {
    ++Stats.PersistentHits;
    trace::instant("cache.hit.persistent", "cache");
  }
  if (UseMemory && !Memory.count(Hash)) {
    // Preserve the execution count across the promotion so the LFU policy
    // is not biased against entries that round-tripped through the
    // persistent level; this access counts too.
    trace::instant("cache.promote", "cache");
    insertMemoryEntry(Hash, Decoded->Payload, Decoded->HitCount + 1,
                      Decoded->Tier, Decoded->Fingerprint);
  }
  return CachedCode{std::move(Decoded->Payload), Decoded->Tier,
                    Decoded->Fingerprint};
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
        if (auto Decoded = decodeEntry(B->Bytes))
          if (Decoded->Tier == CodeTier::Final)
            return;
    }
    Backend->publish(fleet::BlobKind::Code, Hash,
                     encodeEntry(Object, HitCount, Tier, PipelineFingerprint));
  }
}

void CodeCache::writeBackHitCount(uint64_t Hash, uint64_t Count) {
  if (!UsePersistent || Count == 0)
    return;
  auto B = Backend->lookup(fleet::BlobKind::Code, Hash);
  if (!B)
    return;
  auto Decoded = decodeEntry(B->Bytes);
  if (!Decoded || Decoded->HitCount == Count)
    return;
  Backend->publish(fleet::BlobKind::Code, Hash,
                   encodeEntry(Decoded->Payload, Count, Decoded->Tier,
                               Decoded->Fingerprint));
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
