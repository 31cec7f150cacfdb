//===- Entry.h - the persistent cache entry frame ---------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one frame of every persistent cache entry, code object
/// (cache-jit-<hex>.o) or tuning decision (cache-tune-<hex>). It lives with
/// the store because the store evicts by it: LFU reads each entry's hit
/// count here, so the daemon, daemon-less processes and the outage fallback
/// order eviction identically. The layout is private to Entry.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_FLEET_ENTRY_H
#define PROTEUS_FLEET_ENTRY_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace proteus {
namespace fleet {

/// Highest tier a frame may carry (jit's CodeTier::Final).
constexpr uint8_t EntryTierFinal = 1;

/// The frame's metadata around its payload.
struct EntryInfo {
  uint64_t HitCount = 0; ///< LFU execution count, outside the hash
  uint8_t Tier = EntryTierFinal;
  uint64_t Fingerprint = 0; ///< the pipeline that produced the payload
};

std::vector<uint8_t> encodeEntry(const std::vector<uint8_t> &Payload,
                                 const EntryInfo &Info);

/// Checks the magic, the size, the tier and the integrity hash, in that
/// order, and strips the header from \p Bytes in place, leaving the
/// payload. A corrupt frame returns std::nullopt and leaves \p Bytes as is.
std::optional<EntryInfo> decodeEntry(std::vector<uint8_t> &Bytes);

/// The hit count of the entry file at \p Path for eviction order, read from
/// its header alone and unverified; 0 when unreadable or without the frame
/// magic.
uint64_t entryHitCount(const std::string &Path);

/// Sets the hit count of the verified frame \p Bytes in place. Returns
/// whether \p Bytes changed (false when corrupt or already \p Count).
bool setEntryHitCount(std::vector<uint8_t> &Bytes, uint64_t Count);

} // namespace fleet
} // namespace proteus

#endif // PROTEUS_FLEET_ENTRY_H
