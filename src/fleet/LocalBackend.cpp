//===- LocalBackend.cpp - on-disk cache backend ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "fleet/LocalBackend.h"

#include "fleet/Entry.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <tuple>

#include <unistd.h>

using namespace proteus;
using namespace proteus::fleet;

namespace {

constexpr char CodePrefix[] = "cache-jit-";
constexpr char CodeSuffix[] = ".o";
constexpr char TunePrefix[] = "cache-tune-";
constexpr char LockPrefix[] = "cache-lock-";

std::string entryName(BlobKind Kind, uint64_t Key) {
  if (Kind == BlobKind::Code)
    return CodePrefix + hashToHex(Key) + CodeSuffix;
  return TunePrefix + hashToHex(Key);
}

bool isEntryName(const std::string &Name) {
  return startsWith(Name, CodePrefix) || startsWith(Name, TunePrefix);
}

} // namespace

LocalDirBackend::LocalDirBackend(std::string RootDir,
                                 LocalBackendOptions OptionsIn)
    : Root(std::move(RootDir)), Options(OptionsIn) {
  fs::createDirectories(Root);
}

std::string LocalDirBackend::pathFor(BlobKind Kind, uint64_t Key) const {
  return Root + "/" + entryName(Kind, Key);
}

std::string LocalDirBackend::lockPathFor(uint64_t Key) const {
  return Root + "/" + LockPrefix + hashToHex(Key);
}

std::optional<Blob> LocalDirBackend::lookup(BlobKind Kind, uint64_t Key) {
  NLookups.fetch_add(1, std::memory_order_relaxed);
  std::string Path = pathFor(Kind, Key);
  auto Bytes = fs::readFile(Path);
  if (!Bytes) {
    NMisses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  NHits.fetch_add(1, std::memory_order_relaxed);
  fs::touchFile(Path); // LRU recency refresh
  Blob B;
  B.Bytes = std::move(*Bytes);
  B.Remote = false;
  return B;
}

bool LocalDirBackend::publish(BlobKind Kind, uint64_t Key,
                              const std::vector<uint8_t> &Bytes) {
  if (!fs::writeFileAtomic(pathFor(Kind, Key), Bytes))
    return false;
  NPublishes.fetch_add(1, std::memory_order_relaxed);
  NPublishBytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  enforceBudget();
  return true;
}

bool LocalDirBackend::remove(BlobKind Kind, uint64_t Key) {
  return fs::removeFile(pathFor(Kind, Key));
}

void LocalDirBackend::clear() {
  for (const std::string &Name : fs::listFiles(Root))
    if (isEntryName(Name) || startsWith(Name, LockPrefix) ||
        Name.find(".tmp-") != std::string::npos)
      fs::removeFile(Root + "/" + Name);
}

uint64_t LocalDirBackend::totalBytes() {
  uint64_t Total = 0;
  for (const fs::FileInfo &F : fs::listFilesWithInfo(Root))
    if (isEntryName(F.Name))
      Total += F.Bytes;
  return Total;
}

CompileClaim LocalDirBackend::beginCompile(uint64_t Key) {
  std::string Lock = lockPathFor(Key);
  // The lock body records the owner pid — purely diagnostic; ownership is
  // the file's existence.
  std::string Pid = std::to_string(::getpid());
  std::vector<uint8_t> Body(Pid.begin(), Pid.end());
  if (fs::createFileExclusive(Lock, Body))
    return CompileClaim::Owner;
  // Claimed already. Steal it only if the holder looks dead (lock older
  // than the stale threshold — a live compile keeps finishing and releases
  // well within it, or keeps the wait loop in waitRemoteCompile spinning).
  auto AgeNs = fs::fileAgeNs(Lock);
  if (AgeNs && *AgeNs > int64_t(Options.StaleLockMs) * 1000000) {
    fs::removeFile(Lock);
    if (fs::createFileExclusive(Lock, Body))
      return CompileClaim::Owner;
  }
  NDedupHits.fetch_add(1, std::memory_order_relaxed);
  return CompileClaim::InFlightElsewhere;
}

void LocalDirBackend::endCompile(uint64_t Key) {
  fs::removeFile(lockPathFor(Key));
}

BackendStats LocalDirBackend::stats() const {
  BackendStats S;
  S.Lookups = NLookups.load(std::memory_order_relaxed);
  S.Hits = NHits.load(std::memory_order_relaxed);
  S.Misses = NMisses.load(std::memory_order_relaxed);
  S.Publishes = NPublishes.load(std::memory_order_relaxed);
  S.PublishBytes = NPublishBytes.load(std::memory_order_relaxed);
  S.Evictions = NEvictions.load(std::memory_order_relaxed);
  S.DedupHits = NDedupHits.load(std::memory_order_relaxed);
  return S;
}

void LocalDirBackend::enforceBudget() {
  if (!Options.BudgetBytes)
    return;
  trace::Span Sp("fleet.enforce_budget", "fleet");
  std::lock_guard<std::mutex> Lock(EvictMutex);

  struct Victim {
    std::string Path;
    uint64_t Bytes;
    int64_t WriteTimeNs;
    uint64_t Freq;
  };
  std::vector<Victim> Entries;
  uint64_t Total = 0;
  for (const fs::FileInfo &F : fs::listFilesWithInfo(Root)) {
    if (!isEntryName(F.Name))
      continue; // locks and .tmp- siblings are not budgeted entries
    Total += F.Bytes;
    Entries.push_back(Victim{Root + "/" + F.Name, F.Bytes, F.WriteTimeNs, 0});
  }
  if (Total <= Options.BudgetBytes)
    return;

  if (Options.Policy == EvictPolicy::LFU)
    for (Victim &V : Entries)
      V.Freq = entryHitCount(V.Path);
  // Least executed first (under LRU every count stays 0), then oldest.
  std::sort(Entries.begin(), Entries.end(),
            [](const Victim &A, const Victim &B) {
              return std::tie(A.Freq, A.WriteTimeNs) <
                     std::tie(B.Freq, B.WriteTimeNs);
            });

  size_t Remaining = Entries.size();
  for (const Victim &V : Entries) {
    if (Total <= Options.BudgetBytes || Remaining <= 1)
      break;
    if (fs::removeFile(V.Path)) {
      Total -= V.Bytes;
      --Remaining;
      NEvictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}
