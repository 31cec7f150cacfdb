//===- IRBuilder.h - PIR construction helper --------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder: convenience API for constructing PIR, used both by the
/// HeCBench-sim kernels (standing in for Clang's CUDA/HIP lowering) and by
/// transformation passes when materializing new instructions.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_IRBUILDER_H
#define PROTEUS_IR_IRBUILDER_H

#include "ir/Context.h"
#include "ir/Function.h"
#include "ir/Module.h"

namespace pir {

/// Builds instructions at an insertion point (end of a block, or before a
/// given instruction).
class IRBuilder {
public:
  explicit IRBuilder(Context &Ctx) : Ctx(Ctx) {}

  Context &getContext() const { return Ctx; }

  /// Inserts subsequent instructions at the end of \p BB.
  void setInsertPoint(BasicBlock *BB) {
    InsertBlock = BB;
    InsertBefore = nullptr;
  }

  /// Inserts subsequent instructions immediately before \p I.
  void setInsertPoint(Instruction *I) {
    InsertBlock = I->getParent();
    InsertBefore = I;
  }

  BasicBlock *getInsertBlock() const { return InsertBlock; }

  // -- Constants ----------------------------------------------------------

  ConstantInt *getInt32(uint32_t V) { return Ctx.getInt32(V); }
  ConstantInt *getInt64(uint64_t V) { return Ctx.getInt64(V); }
  ConstantFP *getFloat(float V) { return Ctx.getFloat(V); }
  ConstantFP *getDouble(double V) { return Ctx.getDouble(V); }

  Type *getI1Ty() { return Ctx.getI1Ty(); }
  Type *getI32Ty() { return Ctx.getI32Ty(); }
  Type *getI64Ty() { return Ctx.getI64Ty(); }
  Type *getF32Ty() { return Ctx.getF32Ty(); }
  Type *getF64Ty() { return Ctx.getF64Ty(); }
  Type *getPtrTy() { return Ctx.getPtrTy(); }
  Type *getVoidTy() { return Ctx.getVoidTy(); }

  // -- Arithmetic ---------------------------------------------------------

  Value *createBinary(ValueKind K, Value *L, Value *R, std::string Name = "");

  Value *createAdd(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Add, L, R, std::move(N));
  }
  Value *createSub(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Sub, L, R, std::move(N));
  }
  Value *createMul(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Mul, L, R, std::move(N));
  }
  Value *createSDiv(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::SDiv, L, R, std::move(N));
  }
  Value *createUDiv(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::UDiv, L, R, std::move(N));
  }
  Value *createSRem(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::SRem, L, R, std::move(N));
  }
  Value *createURem(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::URem, L, R, std::move(N));
  }
  Value *createAnd(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::And, L, R, std::move(N));
  }
  Value *createOr(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Or, L, R, std::move(N));
  }
  Value *createXor(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Xor, L, R, std::move(N));
  }
  Value *createShl(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Shl, L, R, std::move(N));
  }
  Value *createLShr(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::LShr, L, R, std::move(N));
  }
  Value *createAShr(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::AShr, L, R, std::move(N));
  }
  Value *createFAdd(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FAdd, L, R, std::move(N));
  }
  Value *createFSub(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FSub, L, R, std::move(N));
  }
  Value *createFMul(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FMul, L, R, std::move(N));
  }
  Value *createFDiv(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FDiv, L, R, std::move(N));
  }
  Value *createPow(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::Pow, L, R, std::move(N));
  }
  Value *createFMin(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FMin, L, R, std::move(N));
  }
  Value *createFMax(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::FMax, L, R, std::move(N));
  }
  Value *createSMin(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::SMin, L, R, std::move(N));
  }
  Value *createSMax(Value *L, Value *R, std::string N = "") {
    return createBinary(ValueKind::SMax, L, R, std::move(N));
  }

  Value *createUnary(ValueKind K, Value *V, std::string Name = "");

  Value *createFNeg(Value *V, std::string N = "") {
    return createUnary(ValueKind::FNeg, V, std::move(N));
  }
  Value *createSqrt(Value *V, std::string N = "") {
    return createUnary(ValueKind::Sqrt, V, std::move(N));
  }
  Value *createExp(Value *V, std::string N = "") {
    return createUnary(ValueKind::Exp, V, std::move(N));
  }
  Value *createLog(Value *V, std::string N = "") {
    return createUnary(ValueKind::Log, V, std::move(N));
  }
  Value *createSin(Value *V, std::string N = "") {
    return createUnary(ValueKind::Sin, V, std::move(N));
  }
  Value *createCos(Value *V, std::string N = "") {
    return createUnary(ValueKind::Cos, V, std::move(N));
  }
  Value *createFabs(Value *V, std::string N = "") {
    return createUnary(ValueKind::Fabs, V, std::move(N));
  }
  Value *createFloor(Value *V, std::string N = "") {
    return createUnary(ValueKind::Floor, V, std::move(N));
  }

  // -- Casts --------------------------------------------------------------

  Value *createCast(ValueKind K, Value *V, Type *DestTy, std::string N = "");

  Value *createTrunc(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::Trunc, V, T, std::move(N));
  }
  Value *createZExt(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::ZExt, V, T, std::move(N));
  }
  Value *createSExt(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::SExt, V, T, std::move(N));
  }
  Value *createFPExt(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::FPExt, V, T, std::move(N));
  }
  Value *createFPTrunc(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::FPTrunc, V, T, std::move(N));
  }
  Value *createSIToFP(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::SIToFP, V, T, std::move(N));
  }
  Value *createUIToFP(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::UIToFP, V, T, std::move(N));
  }
  Value *createFPToSI(Value *V, Type *T, std::string N = "") {
    return createCast(ValueKind::FPToSI, V, T, std::move(N));
  }
  Value *createIntToPtr(Value *V, std::string N = "") {
    return createCast(ValueKind::IntToPtr, V, getPtrTy(), std::move(N));
  }
  Value *createPtrToInt(Value *V, std::string N = "") {
    return createCast(ValueKind::PtrToInt, V, getI64Ty(), std::move(N));
  }

  // -- Comparison / select -------------------------------------------------

  Value *createICmp(ICmpPred P, Value *L, Value *R, std::string N = "");
  Value *createFCmp(FCmpPred P, Value *L, Value *R, std::string N = "");
  Value *createSelect(Value *C, Value *T, Value *F, std::string N = "");

  // -- Memory --------------------------------------------------------------

  Value *createAlloca(Type *ElemTy, uint32_t NumElements = 1,
                      std::string N = "");
  Value *createLoad(Type *Ty, Value *Ptr, std::string N = "");
  void createStore(Value *V, Value *Ptr);
  Value *createPtrAdd(Value *Base, Value *Index, uint32_t ElemSize,
                      std::string N = "");
  /// ptradd with the element size taken from \p ElemTy.
  Value *createGep(Type *ElemTy, Value *Base, Value *Index,
                   std::string N = "") {
    return createPtrAdd(Base, Index, ElemTy->sizeInBytes(), std::move(N));
  }
  Value *createAtomicAdd(Value *Ptr, Value *V, std::string N = "");

  // -- GPU intrinsics ------------------------------------------------------

  Value *createThreadIdx(uint8_t Dim = 0, std::string N = "");
  Value *createBlockIdx(uint8_t Dim = 0, std::string N = "");
  Value *createBlockDim(uint8_t Dim = 0, std::string N = "");
  Value *createGridDim(uint8_t Dim = 0, std::string N = "");
  void createBarrier();

  /// blockIdx.x * blockDim.x + threadIdx.x as i32 — the ubiquitous global
  /// thread id idiom.
  Value *createGlobalThreadIdX(std::string N = "gtid");

  // -- Calls / control flow -------------------------------------------------

  Value *createCall(Function *Callee, const std::vector<Value *> &Args,
                    std::string N = "");
  PhiInst *createPhi(Type *Ty, std::string N = "");
  void createBr(BasicBlock *Dest);
  void createCondBr(Value *Cond, BasicBlock *T, BasicBlock *F);
  void createRet();
  void createRet(Value *V);

private:
  Instruction *insert(std::unique_ptr<Instruction> I, std::string Name);

  Context &Ctx;
  BasicBlock *InsertBlock = nullptr;
  Instruction *InsertBefore = nullptr;
};

} // namespace pir

#endif // PROTEUS_IR_IRBUILDER_H
