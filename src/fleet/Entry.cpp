//===- Entry.cpp - the persistent cache entry frame -----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A 48-byte header of little-endian words, then the payload:
//
//   [0..8)   magic "PJITCC2\0"
//   [8..16)  payload size
//   [16..24) FNV-1a integrity hash over the payload, the tier byte and the
//            fingerprint, so a flipped tier byte is as detectable as a
//            flipped payload byte
//   [24..32) hit count, outside the hash: LFU write-backs need no re-hash
//   [32..40) pipeline fingerprint
//   [40..48) tier word
//
// Files from older frames ("PJITCC1\0" entries, "PJITTD1\0" tuning files)
// fail the magic check and are deleted like any other corrupt entry.
//
//===----------------------------------------------------------------------===//

#include "fleet/Entry.h"

#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/Trace.h"

#include <cstring>

using namespace proteus;
using namespace proteus::fleet;

namespace {

constexpr char Magic[8] = {'P', 'J', 'I', 'T', 'C', 'C', '2', '\0'};
constexpr size_t HeaderBytes = 48;
constexpr size_t SizeAt = 8, HashAt = 16, HitsAt = 24, FpAt = 32, TierAt = 40;

void putU64(uint8_t *Frame, size_t Off, uint64_t V) {
  std::memcpy(Frame + Off, &V, sizeof(V));
}

uint64_t getU64(const uint8_t *Frame, size_t Off) {
  uint64_t V;
  std::memcpy(&V, Frame + Off, sizeof(V));
  return V;
}

uint64_t integrityHash(const uint8_t *Payload, size_t Bytes,
                       const EntryInfo &Info) {
  trace::Span Sp("cache.integrity_hash", "cache");
  FNV1aHash H;
  H.updateBytes(Payload, Bytes);
  H.update(Info.Tier);
  H.update(Info.Fingerprint);
  return H.digest();
}

bool hasMagic(const std::vector<uint8_t> &Bytes) {
  return Bytes.size() >= HeaderBytes &&
         std::memcmp(Bytes.data(), Magic, sizeof(Magic)) == 0;
}

std::optional<EntryInfo> verify(const std::vector<uint8_t> &Bytes) {
  const uint8_t *F = Bytes.data();
  if (!hasMagic(Bytes) || getU64(F, SizeAt) != Bytes.size() - HeaderBytes ||
      getU64(F, TierAt) > EntryTierFinal)
    return std::nullopt;
  EntryInfo Info{getU64(F, HitsAt), static_cast<uint8_t>(getU64(F, TierAt)),
                 getU64(F, FpAt)};
  if (getU64(F, HashAt) !=
      integrityHash(F + HeaderBytes, Bytes.size() - HeaderBytes, Info))
    return std::nullopt;
  return Info;
}

} // namespace

std::vector<uint8_t> fleet::encodeEntry(const std::vector<uint8_t> &Payload,
                                        const EntryInfo &Info) {
  trace::Span Sp("cache.encode", "cache");
  std::vector<uint8_t> Buf(HeaderBytes + Payload.size());
  uint8_t *F = Buf.data();
  std::memcpy(F, Magic, sizeof(Magic));
  putU64(F, SizeAt, Payload.size());
  putU64(F, HashAt, integrityHash(Payload.data(), Payload.size(), Info));
  putU64(F, HitsAt, Info.HitCount);
  putU64(F, FpAt, Info.Fingerprint);
  putU64(F, TierAt, Info.Tier);
  if (!Payload.empty())
    std::memcpy(F + HeaderBytes, Payload.data(), Payload.size());
  return Buf;
}

std::optional<EntryInfo> fleet::decodeEntry(std::vector<uint8_t> &Bytes) {
  std::optional<EntryInfo> Info = verify(Bytes);
  if (Info)
    Bytes.erase(Bytes.begin(), Bytes.begin() + HeaderBytes);
  return Info;
}

uint64_t fleet::entryHitCount(const std::string &Path) {
  // Eviction scans every entry: read the header, never the payload.
  auto Head = fs::readFileHead(Path, HeaderBytes);
  return Head && hasMagic(*Head) ? getU64(Head->data(), HitsAt) : 0;
}

bool fleet::setEntryHitCount(std::vector<uint8_t> &Bytes, uint64_t Count) {
  std::optional<EntryInfo> Info = verify(Bytes);
  if (!Info || Info->HitCount == Count)
    return false;
  putU64(Bytes.data(), HitsAt, Count);
  return true;
}
