//===- Type.h - PIR type system --------------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PIR type system. PIR is the in-tree stand-in for LLVM IR: a typed SSA
/// IR over which the Proteus JIT performs runtime specialization. The type
/// lattice is deliberately small — the scalar types CUDA/HIP kernels use in
/// practice plus an opaque pointer type (device global memory addresses).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_TYPE_H
#define PROTEUS_IR_TYPE_H

#include <cassert>
#include <cstdint>
#include <string>

namespace pir {

class Context;

/// A PIR first-class type. Instances are uniqued singletons owned by the
/// Context; pointer equality is type equality.
class Type {
public:
  enum class Kind : uint8_t { Void, I1, I32, I64, F32, F64, Ptr };

  Kind getKind() const { return TheKind; }

  bool isVoid() const { return TheKind == Kind::Void; }
  bool isI1() const { return TheKind == Kind::I1; }
  bool isI64() const { return TheKind == Kind::I64; }
  bool isF32() const { return TheKind == Kind::F32; }
  bool isF64() const { return TheKind == Kind::F64; }
  bool isPointer() const { return TheKind == Kind::Ptr; }

  bool isInteger() const {
    return TheKind == Kind::I1 || TheKind == Kind::I32 ||
           TheKind == Kind::I64;
  }

  bool isFloatingPoint() const {
    return TheKind == Kind::F32 || TheKind == Kind::F64;
  }

  /// Size of a value of this type in device memory, in bytes.
  unsigned sizeInBytes() const {
    switch (TheKind) {
    case Kind::Void:
      return 0;
    case Kind::I1:
      return 1;
    case Kind::I32:
    case Kind::F32:
      return 4;
    case Kind::I64:
    case Kind::F64:
    case Kind::Ptr:
      return 8;
    }
    return 0;
  }

  /// Bit width for integer types.
  unsigned integerBitWidth() const {
    assert(isInteger() && "not an integer type");
    switch (TheKind) {
    case Kind::I1:
      return 1;
    case Kind::I32:
      return 32;
    default:
      return 64;
    }
  }

  /// The textual spelling used by the IR printer/parser ("i32", "ptr", ...).
  std::string getName() const;

private:
  friend class Context;
  explicit Type(Kind K) : TheKind(K) {}

  Kind TheKind;
};

} // namespace pir

#endif // PROTEUS_IR_TYPE_H
