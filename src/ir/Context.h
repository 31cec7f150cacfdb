//===- Context.h - PIR context / constant uniquing --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Context owns the uniqued Type singletons and uniqued Constants.
/// Everything built within one Context may be freely mixed; Modules from
/// different Contexts may not reference each other's values.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_CONTEXT_H
#define PROTEUS_IR_CONTEXT_H

#include "ir/Type.h"

#include <cstdint>
#include <map>
#include <memory>

namespace pir {

class Constant;
class ConstantInt;
class ConstantFP;
class ConstantPtr;

/// Owner of types and uniqued constants.
class Context {
public:
  Context();
  ~Context();

  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  Type *getVoidTy() { return &VoidTy; }
  Type *getI1Ty() { return &I1Ty; }
  Type *getI32Ty() { return &I32Ty; }
  Type *getI64Ty() { return &I64Ty; }
  Type *getF32Ty() { return &F32Ty; }
  Type *getF64Ty() { return &F64Ty; }
  Type *getPtrTy() { return &PtrTy; }

  /// Returns the type with the given kind.
  Type *getType(Type::Kind K);

  /// Uniqued integer constant of type \p Ty (I1/I32/I64). \p Value is stored
  /// zero-extended; signed interpretation happens at use sites.
  ConstantInt *getConstantInt(Type *Ty, uint64_t Value);

  ConstantInt *getTrue() { return getConstantInt(&I1Ty, 1); }
  ConstantInt *getFalse() { return getConstantInt(&I1Ty, 0); }
  ConstantInt *getInt32(uint32_t V) { return getConstantInt(&I32Ty, V); }
  ConstantInt *getInt64(uint64_t V) { return getConstantInt(&I64Ty, V); }

  /// Uniqued floating-point constant of type \p Ty (F32/F64).
  ConstantFP *getConstantFP(Type *Ty, double Value);

  ConstantFP *getFloat(float V) {
    return getConstantFP(&F32Ty, static_cast<double>(V));
  }
  ConstantFP *getDouble(double V) { return getConstantFP(&F64Ty, V); }

  /// Uniqued raw pointer constant. Address 0 doubles as the null pointer.
  /// JIT-time linking of device globals rewrites GlobalVariable references
  /// into ConstantPtr addresses resolved via gpuGetSymbolAddress.
  ConstantPtr *getConstantPtr(uint64_t Address);

  ConstantPtr *getNullPtr() { return getConstantPtr(0); }

  /// The zero of \p Ty (an integer, floating-point or pointer type): the
  /// value of an uninitialized promoted variable and the placeholder for a
  /// forward reference that is patched later.
  Constant *getZeroValue(Type *Ty);

private:
  Type VoidTy{Type::Kind::Void};
  Type I1Ty{Type::Kind::I1};
  Type I32Ty{Type::Kind::I32};
  Type I64Ty{Type::Kind::I64};
  Type F32Ty{Type::Kind::F32};
  Type F64Ty{Type::Kind::F64};
  Type PtrTy{Type::Kind::Ptr};

  std::map<std::pair<Type::Kind, uint64_t>, std::unique_ptr<ConstantInt>>
      IntConstants;
  std::map<std::pair<Type::Kind, uint64_t>, std::unique_ptr<ConstantFP>>
      FPConstants;
  std::map<uint64_t, std::unique_ptr<ConstantPtr>> PtrConstants;
};

} // namespace pir

#endif // PROTEUS_IR_CONTEXT_H
