//===- Context.cpp - PIR context / constant uniquing ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Context.h"

#include "ir/Constants.h"
#include "support/Error.h"

#include <cstring>

using namespace pir;

Context::Context() = default;
Context::~Context() = default;

Type *Context::getType(Type::Kind K) {
  switch (K) {
  case Type::Kind::Void:
    return &VoidTy;
  case Type::Kind::I1:
    return &I1Ty;
  case Type::Kind::I32:
    return &I32Ty;
  case Type::Kind::I64:
    return &I64Ty;
  case Type::Kind::F32:
    return &F32Ty;
  case Type::Kind::F64:
    return &F64Ty;
  case Type::Kind::Ptr:
    return &PtrTy;
  }
  proteus_unreachable("unknown type kind");
}

ConstantInt *Context::getConstantInt(Type *Ty, uint64_t Value) {
  assert(Ty->isInteger() && "integer constant requires integer type");
  uint64_t Masked = ConstantInt::maskToWidth(Ty, Value);
  auto Key = std::make_pair(Ty->getKind(), Masked);
  auto It = IntConstants.find(Key);
  if (It != IntConstants.end())
    return It->second.get();
  auto C = std::make_unique<ConstantInt>(Ty, Masked);
  ConstantInt *Raw = C.get();
  IntConstants.emplace(Key, std::move(C));
  return Raw;
}

ConstantFP *Context::getConstantFP(Type *Ty, double Value) {
  assert(Ty->isFloatingPoint() && "FP constant requires FP type");
  if (Ty->isF32())
    Value = static_cast<double>(static_cast<float>(Value));
  // Key on the bit pattern so that -0.0 and NaN payloads stay distinct.
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  auto Key = std::make_pair(Ty->getKind(), Bits);
  auto It = FPConstants.find(Key);
  if (It != FPConstants.end())
    return It->second.get();
  auto C = std::make_unique<ConstantFP>(Ty, Value);
  ConstantFP *Raw = C.get();
  FPConstants.emplace(Key, std::move(C));
  return Raw;
}

Constant *Context::getZeroValue(Type *Ty) {
  if (Ty->isInteger())
    return getConstantInt(Ty, 0);
  if (Ty->isFloatingPoint())
    return getConstantFP(Ty, 0.0);
  return getNullPtr();
}

ConstantPtr *Context::getConstantPtr(uint64_t Address) {
  auto It = PtrConstants.find(Address);
  if (It != PtrConstants.end())
    return It->second.get();
  auto C = std::make_unique<ConstantPtr>(&PtrTy, Address);
  ConstantPtr *Raw = C.get();
  PtrConstants.emplace(Address, std::move(C));
  return Raw;
}
