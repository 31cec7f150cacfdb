//===- Bitcode.h - PIR binary serialization ---------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of PIR modules — the equivalent of LLVM bitcode in
/// the paper's design. The Proteus AOT extensions serialize each annotated
/// kernel's (unoptimized) module with writeBitcode and embed the bytes in
/// the device image (__jit_bc_<kernel> / .jit.<kernel> section); the JIT
/// runtime library deserializes with readBitcode before specializing.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_BITCODE_BITCODE_H
#define PROTEUS_BITCODE_BITCODE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pir {
class Context;
class Module;
} // namespace pir

namespace proteus {

/// Largest global variable the reader accepts, in bytes (4 GiB, sixteen
/// times the simulated device memory). A count whose byte size overflows
/// or exceeds it is rejected.
constexpr uint64_t MaxBitcodeGlobalBytes = uint64_t(1) << 32;

/// Serializes \p M into a self-contained byte buffer.
std::vector<uint8_t> writeBitcode(pir::Module &M);

/// Result of deserialization: a module, or a diagnostic.
struct BitcodeReadResult {
  std::unique_ptr<pir::Module> M;
  std::string Error;

  explicit operator bool() const { return M != nullptr; }
};

/// Deserializes a module from \p Bytes into \p Ctx. Malformed input yields
/// an error result, never undefined behavior — cache files may be corrupt.
BitcodeReadResult readBitcode(pir::Context &Ctx,
                              const std::vector<uint8_t> &Bytes);

} // namespace proteus

#endif // PROTEUS_BITCODE_BITCODE_H
