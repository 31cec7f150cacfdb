//===- BinaryStream.h - byte-level serialization ----------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian byte writer/reader used by the bitcode (de)serializer and
/// the object-file format. The reader is bounds-checked and latches an error
/// flag instead of aborting, since its inputs include persistent-cache files
/// that may be truncated or corrupt.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_BINARYSTREAM_H
#define PROTEUS_SUPPORT_BINARYSTREAM_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace proteus {

/// Appends fixed-width little-endian values to a byte buffer. Each write
/// stores through a cursor into storage sized ahead; the storage grows
/// (doubling) only when a write does not fit.
class ByteWriter {
public:
  /// Sizes the storage for \p N more bytes, so a writer told its exact
  /// output size fills one buffer and never grows it.
  void reserve(size_t N) {
    if (Buf.size() - Len < N)
      Buf.resize(Len + N);
  }

  void writeU8(uint8_t V) { *grow(1) = V; }
  void writeU32(uint32_t V) { writeLE(V); }
  void writeU64(uint64_t V) { writeLE(V); }

  void writeF64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    writeU64(Bits);
  }

  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    if (!S.empty())
      std::memcpy(grow(S.size()), S.data(), S.size());
  }

  void writeBytes(const std::vector<uint8_t> &B) {
    writeU32(static_cast<uint32_t>(B.size()));
    if (!B.empty())
      std::memcpy(grow(B.size()), B.data(), B.size());
  }

  /// The bytes written so far.
  const std::vector<uint8_t> &data() {
    Buf.resize(Len);
    return Buf;
  }

  std::vector<uint8_t> take() {
    Buf.resize(Len);
    Len = 0;
    return std::move(Buf);
  }

private:
  /// Advances the cursor by \p N bytes and returns where they go.
  uint8_t *grow(size_t N) {
    if (Buf.size() - Len < N)
      Buf.resize(std::max(2 * Buf.size(), Len + N));
    uint8_t *P = Buf.data() + Len;
    Len += N;
    return P;
  }

  template <typename T> void writeLE(T V) {
    static_assert(std::endian::native == std::endian::little,
                  "stores host bytes as little-endian");
    std::memcpy(grow(sizeof(T)), &V, sizeof(T));
  }

  std::vector<uint8_t> Buf; // bytes [0, Len) are written
  size_t Len = 0;
};

/// Bounds-checked reader over a byte buffer. After any failed read, ok()
/// returns false and subsequent reads yield zeros.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Buf) : Buf(Buf) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return Failed ? 0 : Buf.size() - Pos; }

  uint8_t readU8() {
    if (!require(1))
      return 0;
    return Buf[Pos++];
  }

  uint32_t readU32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Buf[Pos++]) << (8 * I);
    return V;
  }

  uint64_t readU64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Buf[Pos++]) << (8 * I);
    return V;
  }

  double readF64() {
    uint64_t Bits = readU64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  std::string readString() {
    uint32_t N = readU32();
    if (!require(N))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Buf.data() + Pos), N);
    Pos += N;
    return S;
  }

  std::vector<uint8_t> readBytes() {
    uint32_t N = readU32();
    if (!require(N))
      return {};
    std::vector<uint8_t> B(Buf.begin() + static_cast<long>(Pos),
                           Buf.begin() + static_cast<long>(Pos + N));
    Pos += N;
    return B;
  }

private:
  bool require(size_t N) {
    if (Failed || Buf.size() - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }

  const std::vector<uint8_t> &Buf;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace proteus

#endif // PROTEUS_SUPPORT_BINARYSTREAM_H
