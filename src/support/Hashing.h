//===- Hashing.h - FNV-1a hashing utilities --------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic 64-bit FNV-1a hashing used for code-cache keys and module
/// identifiers. Hashes must be stable across runs so that the persistent
/// cache (cache-jit-<hash>.o files) remains valid between executions.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_HASHING_H
#define PROTEUS_SUPPORT_HASHING_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {

/// Incremental FNV-1a 64-bit hasher.
class FNV1aHash {
public:
  static constexpr uint64_t OffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t Prime = 0x100000001b3ULL;

  FNV1aHash() = default;

  void updateBytes(const void *Data, size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      State ^= P[I];
      State *= Prime;
    }
  }

  void update(std::string_view S) { updateBytes(S.data(), S.size()); }

  void update(uint64_t V) { updateBytes(&V, sizeof(V)); }
  void update(int64_t V) { updateBytes(&V, sizeof(V)); }
  void update(uint32_t V) { updateBytes(&V, sizeof(V)); }
  void update(int32_t V) { updateBytes(&V, sizeof(V)); }
  void update(uint8_t V) { updateBytes(&V, sizeof(V)); }
  void update(bool V) { update(static_cast<uint8_t>(V)); }

  void update(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    update(Bits);
  }

  void update(const std::vector<uint8_t> &Bytes) {
    updateBytes(Bytes.data(), Bytes.size());
  }

  /// Returns the current digest.
  uint64_t digest() const { return State; }

private:
  uint64_t State = OffsetBasis;
};

/// One-shot convenience hash of a byte string.
inline uint64_t hashBytes(const void *Data, size_t Size) {
  FNV1aHash H;
  H.updateBytes(Data, Size);
  return H.digest();
}

inline uint64_t hashString(std::string_view S) {
  return hashBytes(S.data(), S.size());
}

/// Renders a hash as a fixed-width lowercase hex string, suitable for use in
/// persistent cache file names.
std::string hashToHex(uint64_t Hash);

} // namespace proteus

#endif // PROTEUS_SUPPORT_HASHING_H
