//===- OpSemantics.h - shared evaluation semantics --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One definition of what every PIR operation computes, shared by three
/// consumers that must agree bit-for-bit: the IR interpreter (reference
/// semantics for differential testing), the constant folder (compile-time
/// evaluation), and the GPU simulator's machine-code executor. Values are
/// carried as 64-bit containers: integers zero-extended to the container,
/// f32 in the low 32 bits (IEEE single), f64 as the full container.
///
/// Integer division/remainder by zero is *defined* to produce 0 — the
/// simulator must not trap, and the folder must match the simulator.
///
/// Each operation has one definition, keyed by Type::Kind and forced
/// inline, so the executor's per-(operation, type) handlers fold to the
/// single operation they name. The Type* overloads forward to it.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_OPSEMANTICS_H
#define PROTEUS_IR_OPSEMANTICS_H

#include "ir/Instructions.h"
#include "support/Error.h"

#include <cmath>
#include <cstring>

namespace pir {
namespace sem {

inline uint64_t boxF32(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

inline float unboxF32(uint64_t Bits) {
  uint32_t B = static_cast<uint32_t>(Bits);
  float F;
  std::memcpy(&F, &B, sizeof(F));
  return F;
}

inline uint64_t boxF64(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

inline double unboxF64(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// Forces inlining of the Type::Kind-keyed cores below: the executor calls
/// them with constant kinds, one call site per handler, and relies on each
/// folding to the one operation it names.
#define PIR_SEM_INLINE [[gnu::always_inline]] inline

/// Width in bits an integer operation works at: the integer width for
/// i1/i32/i64, the full container for every other kind.
PIR_SEM_INLINE unsigned operatingWidth(Type::Kind T) {
  return T == Type::Kind::I1 ? 1 : T == Type::Kind::I32 ? 32 : 64;
}

PIR_SEM_INLINE uint64_t maskToType(Type::Kind T, uint64_t Bits) {
  switch (T) {
  case Type::Kind::I1:
    return Bits & 1;
  case Type::Kind::I32:
  case Type::Kind::F32:
    return Bits & 0xFFFFFFFFULL;
  default:
    return Bits;
  }
}

PIR_SEM_INLINE int64_t signExtend(Type::Kind T, uint64_t Bits) {
  switch (T) {
  case Type::Kind::I1:
    return (Bits & 1) ? -1 : 0;
  case Type::Kind::I32:
    return static_cast<int64_t>(static_cast<int32_t>(Bits));
  default:
    return static_cast<int64_t>(Bits);
  }
}

/// Evaluates a binary operation of kind \p K on operand type kind \p T.
PIR_SEM_INLINE uint64_t evalBinary(ValueKind K, Type::Kind T, uint64_t A,
                                   uint64_t B) {
  const bool IsF32 = T == Type::Kind::F32;
  auto FoldFP = [&](auto Fn) -> uint64_t {
    if (IsF32)
      return boxF32(static_cast<float>(Fn(unboxF32(A), unboxF32(B))));
    return boxF64(Fn(unboxF64(A), unboxF64(B)));
  };
  const uint64_t UA = maskToType(T, A), UB = maskToType(T, B);
  const int64_t SA = signExtend(T, UA), SB = signExtend(T, UB);
  const uint64_t ShAmt = UB % operatingWidth(T);
  switch (K) {
  case ValueKind::Add:
    return maskToType(T, UA + UB);
  case ValueKind::Sub:
    return maskToType(T, UA - UB);
  case ValueKind::Mul:
    return maskToType(T, UA * UB);
  case ValueKind::SDiv:
    if (SB == 0)
      return 0;
    if (SA == INT64_MIN && SB == -1) // would trap natively; wraps instead
      return maskToType(T, static_cast<uint64_t>(SA));
    return maskToType(T, static_cast<uint64_t>(SA / SB));
  case ValueKind::UDiv:
    return UB == 0 ? 0 : maskToType(T, UA / UB);
  case ValueKind::SRem:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return 0;
    return maskToType(T, static_cast<uint64_t>(SA % SB));
  case ValueKind::URem:
    return UB == 0 ? 0 : maskToType(T, UA % UB);
  case ValueKind::And:
    return UA & UB;
  case ValueKind::Or:
    return UA | UB;
  case ValueKind::Xor:
    return UA ^ UB;
  case ValueKind::Shl:
    return maskToType(T, UA << ShAmt);
  case ValueKind::LShr:
    return maskToType(T, UA >> ShAmt);
  case ValueKind::AShr:
    return maskToType(T, static_cast<uint64_t>(SA >> ShAmt));
  case ValueKind::FAdd:
    return FoldFP([](auto X, auto Y) { return X + Y; });
  case ValueKind::FSub:
    return FoldFP([](auto X, auto Y) { return X - Y; });
  case ValueKind::FMul:
    return FoldFP([](auto X, auto Y) { return X * Y; });
  case ValueKind::FDiv:
    return FoldFP([](auto X, auto Y) { return X / Y; });
  case ValueKind::Pow:
    if (IsF32)
      return boxF32(std::pow(unboxF32(A), unboxF32(B)));
    return boxF64(std::pow(unboxF64(A), unboxF64(B)));
  case ValueKind::FMin:
    return FoldFP([](auto X, auto Y) { return X < Y ? X : Y; });
  case ValueKind::FMax:
    return FoldFP([](auto X, auto Y) { return X > Y ? X : Y; });
  case ValueKind::SMin:
    return maskToType(T, static_cast<uint64_t>(SA < SB ? SA : SB));
  case ValueKind::SMax:
    return maskToType(T, static_cast<uint64_t>(SA > SB ? SA : SB));
  default:
    proteus_unreachable("not a binary opcode");
  }
}

/// Evaluates a unary operation of kind \p K on operand type kind \p T.
PIR_SEM_INLINE uint64_t evalUnary(ValueKind K, Type::Kind T, uint64_t A) {
  const bool IsF32 = T == Type::Kind::F32;
  auto FoldFP = [&](auto Fn) -> uint64_t {
    if (IsF32)
      return boxF32(static_cast<float>(Fn(unboxF32(A))));
    return boxF64(Fn(unboxF64(A)));
  };
  switch (K) {
  case ValueKind::FNeg:
    return FoldFP([](auto X) { return -X; });
  case ValueKind::Sqrt:
    if (IsF32)
      return boxF32(std::sqrt(unboxF32(A)));
    return boxF64(std::sqrt(unboxF64(A)));
  case ValueKind::Exp:
    if (IsF32)
      return boxF32(std::exp(unboxF32(A)));
    return boxF64(std::exp(unboxF64(A)));
  case ValueKind::Log:
    if (IsF32)
      return boxF32(std::log(unboxF32(A)));
    return boxF64(std::log(unboxF64(A)));
  case ValueKind::Sin:
    if (IsF32)
      return boxF32(std::sin(unboxF32(A)));
    return boxF64(std::sin(unboxF64(A)));
  case ValueKind::Cos:
    if (IsF32)
      return boxF32(std::cos(unboxF32(A)));
    return boxF64(std::cos(unboxF64(A)));
  case ValueKind::Fabs:
    return FoldFP([](auto X) { return X < 0 ? -X : (X == 0 ? X * X : X); });
  case ValueKind::Floor:
    if (IsF32)
      return boxF32(std::floor(unboxF32(A)));
    return boxF64(std::floor(unboxF64(A)));
  default:
    proteus_unreachable("not a unary opcode");
  }
}

/// Evaluates a cast of kind \p K from type kind \p Src to type kind \p Dst.
PIR_SEM_INLINE uint64_t evalCast(ValueKind K, Type::Kind Src, Type::Kind Dst,
                                 uint64_t A) {
  switch (K) {
  case ValueKind::Trunc:
    return maskToType(Dst, A);
  case ValueKind::ZExt:
    return maskToType(Src, A);
  case ValueKind::SExt:
    return maskToType(Dst, static_cast<uint64_t>(signExtend(Src, A)));
  case ValueKind::FPExt:
    return boxF64(static_cast<double>(unboxF32(A)));
  case ValueKind::FPTrunc:
    return boxF32(static_cast<float>(unboxF64(A)));
  case ValueKind::SIToFP: {
    int64_t S = signExtend(Src, A);
    return Dst == Type::Kind::F32 ? boxF32(static_cast<float>(S))
                                  : boxF64(static_cast<double>(S));
  }
  case ValueKind::UIToFP: {
    uint64_t U = maskToType(Src, A);
    return Dst == Type::Kind::F32 ? boxF32(static_cast<float>(U))
                                  : boxF64(static_cast<double>(U));
  }
  case ValueKind::FPToSI: {
    double D = Src == Type::Kind::F32 ? static_cast<double>(unboxF32(A))
                                      : unboxF64(A);
    // Saturating-ish conversion: NaN -> 0, out-of-range clamps, matching
    // what the simulator executes.
    if (std::isnan(D))
      return 0;
    int64_t S;
    if (D >= 9.2233720368547758e18)
      S = INT64_MAX;
    else if (D <= -9.2233720368547758e18)
      S = INT64_MIN;
    else
      S = static_cast<int64_t>(D);
    return maskToType(Dst, static_cast<uint64_t>(S));
  }
  case ValueKind::IntToPtr:
  case ValueKind::PtrToInt:
    return A;
  default:
    proteus_unreachable("not a cast opcode");
  }
}

PIR_SEM_INLINE bool evalICmp(ICmpPred P, Type::Kind T, uint64_t A,
                             uint64_t B) {
  const uint64_t UA = maskToType(T, A), UB = maskToType(T, B);
  const int64_t SA = signExtend(T, UA), SB = signExtend(T, UB);
  switch (P) {
  case ICmpPred::EQ:
    return UA == UB;
  case ICmpPred::NE:
    return UA != UB;
  case ICmpPred::SLT:
    return SA < SB;
  case ICmpPred::SLE:
    return SA <= SB;
  case ICmpPred::SGT:
    return SA > SB;
  case ICmpPred::SGE:
    return SA >= SB;
  case ICmpPred::ULT:
    return UA < UB;
  case ICmpPred::ULE:
    return UA <= UB;
  case ICmpPred::UGT:
    return UA > UB;
  case ICmpPred::UGE:
    return UA >= UB;
  }
  proteus_unreachable("unknown icmp predicate");
}

PIR_SEM_INLINE bool evalFCmp(FCmpPred P, Type::Kind T, uint64_t A,
                             uint64_t B) {
  const bool IsF32 = T == Type::Kind::F32;
  double X = IsF32 ? static_cast<double>(unboxF32(A)) : unboxF64(A);
  double Y = IsF32 ? static_cast<double>(unboxF32(B)) : unboxF64(B);
  switch (P) {
  case FCmpPred::OEQ:
    return X == Y;
  case FCmpPred::ONE:
    return X < Y || X > Y; // ordered-and-unequal
  case FCmpPred::OLT:
    return X < Y;
  case FCmpPred::OLE:
    return X <= Y;
  case FCmpPred::OGT:
    return X > Y;
  case FCmpPred::OGE:
    return X >= Y;
  }
  proteus_unreachable("unknown fcmp predicate");
}

// Type* entry points for the interpreter and the constant folder.

inline uint64_t maskToType(Type *Ty, uint64_t Bits) {
  return maskToType(Ty->getKind(), Bits);
}

inline int64_t signExtend(Type *Ty, uint64_t Bits) {
  return signExtend(Ty->getKind(), Bits);
}

inline uint64_t evalBinary(ValueKind K, Type *Ty, uint64_t A, uint64_t B) {
  return evalBinary(K, Ty->getKind(), A, B);
}

inline uint64_t evalUnary(ValueKind K, Type *Ty, uint64_t A) {
  return evalUnary(K, Ty->getKind(), A);
}

inline uint64_t evalCast(ValueKind K, Type *SrcTy, Type *DstTy, uint64_t A) {
  return evalCast(K, SrcTy->getKind(), DstTy->getKind(), A);
}

inline bool evalICmp(ICmpPred P, Type *Ty, uint64_t A, uint64_t B) {
  return evalICmp(P, Ty->getKind(), A, B);
}

inline bool evalFCmp(FCmpPred P, Type *Ty, uint64_t A, uint64_t B) {
  return evalFCmp(P, Ty->getKind(), A, B);
}

#undef PIR_SEM_INLINE

} // namespace sem
} // namespace pir

#endif // PROTEUS_IR_OPSEMANTICS_H
