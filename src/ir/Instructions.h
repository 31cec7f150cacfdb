//===- Instructions.h - PIR instruction hierarchy ---------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PIR instruction set: scalar arithmetic, casts, comparisons, memory
/// access, GPU thread-geometry intrinsics, calls, phis and control flow.
/// This is the IR the Proteus AOT extensions extract per annotated kernel
/// and the JIT runtime specializes at launch time.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_INSTRUCTIONS_H
#define PROTEUS_IR_INSTRUCTIONS_H

#include "ir/Constants.h"
#include "ir/IList.h"
#include "ir/Value.h"

#include <memory>
#include <vector>

namespace pir {

class BasicBlock;
class Function;

/// Base class of everything that lives inside a BasicBlock.
class Instruction : public User, public IListNode<Instruction> {
public:
  BasicBlock *getParent() const { return Parent; }

  /// The function containing this instruction, or null when unlinked.
  Function *getFunction() const;

  /// Unlinks and destroys this instruction. All uses must be gone.
  void eraseFromParent();

  /// Unlinks this instruction and re-inserts it immediately before \p Pos
  /// (which may live in a different block of the same function).
  void moveBefore(Instruction *Pos);

  bool isTerminator() const {
    ValueKind K = getKind();
    return K == ValueKind::Br || K == ValueKind::CondBr || K == ValueKind::Ret;
  }

  /// True for instructions that write memory or have control-relevant
  /// effects and must not be removed even when unused.
  bool mayHaveSideEffects() const;

  /// True if this instruction can be freely re-executed or hoisted (no
  /// memory write, no barrier, no trap potential from division).
  bool isSpeculatable() const;

  static bool classof(const Value *V) { return V->isInstruction(); }

protected:
  Instruction(ValueKind K, Type *T) : User(K, T) {}

private:
  friend class BasicBlock;
  BasicBlock *Parent = nullptr;
};

/// Two-operand arithmetic/bitwise/binary-math instruction.
class BinaryInst : public Instruction {
public:
  BinaryInst(ValueKind K, Value *LHS, Value *RHS)
      : Instruction(K, LHS->getType()) {
    assert(isBinaryKind(K) && "not a binary opcode");
    assert(LHS->getType() == RHS->getType() &&
           "binary operands must have matching types");
    addOperand(LHS);
    addOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool isBinaryKind(ValueKind K) {
    return K >= ValueKind::Add && K <= ValueKind::SMax;
  }

  /// True for opcodes where operand order does not matter.
  bool isCommutative() const {
    switch (getKind()) {
    case ValueKind::Add:
    case ValueKind::Mul:
    case ValueKind::And:
    case ValueKind::Or:
    case ValueKind::Xor:
    case ValueKind::FAdd:
    case ValueKind::FMul:
    case ValueKind::FMin:
    case ValueKind::FMax:
    case ValueKind::SMin:
    case ValueKind::SMax:
      return true;
    default:
      return false;
    }
  }

  static bool classof(const Value *V) { return isBinaryKind(V->getKind()); }
};

/// One-operand instruction: fneg and the unary math intrinsics.
class UnaryInst : public Instruction {
public:
  UnaryInst(ValueKind K, Value *Operand)
      : Instruction(K, Operand->getType()) {
    assert(isUnaryKind(K) && "not a unary opcode");
    addOperand(Operand);
  }

  Value *getOperandValue() const { return getOperand(0); }

  static bool isUnaryKind(ValueKind K) {
    return K >= ValueKind::FNeg && K <= ValueKind::Floor;
  }

  static bool classof(const Value *V) { return isUnaryKind(V->getKind()); }
};

/// Type conversion.
class CastInst : public Instruction {
public:
  CastInst(ValueKind K, Value *Operand, Type *DestTy)
      : Instruction(K, DestTy) {
    assert(isCastKind(K) && "not a cast opcode");
    addOperand(Operand);
  }

  Value *getSource() const { return getOperand(0); }

  static bool isCastKind(ValueKind K) {
    return K >= ValueKind::Trunc && K <= ValueKind::PtrToInt;
  }

  static bool classof(const Value *V) { return isCastKind(V->getKind()); }
};

/// Integer/pointer comparison predicates.
enum class ICmpPred : uint8_t { EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE };

/// Ordered floating-point comparison predicates.
enum class FCmpPred : uint8_t { OEQ, ONE, OLT, OLE, OGT, OGE };

const char *icmpPredName(ICmpPred P);
const char *fcmpPredName(FCmpPred P);

/// Integer (or pointer) comparison producing i1.
class ICmpInst : public Instruction {
public:
  ICmpInst(ICmpPred P, Value *LHS, Value *RHS, Type *I1Ty)
      : Instruction(ValueKind::ICmp, I1Ty), Pred(P) {
    assert(LHS->getType() == RHS->getType() && "icmp operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  ICmpPred getPredicate() const { return Pred; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::ICmp;
  }

private:
  ICmpPred Pred;
};

/// Floating-point comparison producing i1.
class FCmpInst : public Instruction {
public:
  FCmpInst(FCmpPred P, Value *LHS, Value *RHS, Type *I1Ty)
      : Instruction(ValueKind::FCmp, I1Ty), Pred(P) {
    assert(LHS->getType() == RHS->getType() && "fcmp operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  FCmpPred getPredicate() const { return Pred; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::FCmp;
  }

private:
  FCmpPred Pred;
};

/// select cond, tval, fval.
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TrueV, Value *FalseV)
      : Instruction(ValueKind::Select, TrueV->getType()) {
    assert(Cond->getType()->isI1() && "select condition must be i1");
    assert(TrueV->getType() == FalseV->getType() &&
           "select arm type mismatch");
    addOperand(Cond);
    addOperand(TrueV);
    addOperand(FalseV);
  }

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Select;
  }
};

/// Thread-private scratch allocation ("local memory"). Produces a pointer
/// valid only within the executing thread.
class AllocaInst : public Instruction {
public:
  AllocaInst(Type *PtrTy, Type *ElemTy, uint32_t NumElements)
      : Instruction(ValueKind::Alloca, PtrTy), ElemTy(ElemTy),
        NumElements(NumElements) {
    assert(!ElemTy->isVoid() && "cannot allocate void");
  }

  Type *getAllocatedType() const { return ElemTy; }
  uint32_t getNumElements() const { return NumElements; }
  uint64_t allocationSizeBytes() const {
    return static_cast<uint64_t>(ElemTy->sizeInBytes()) * NumElements;
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Alloca;
  }

private:
  Type *ElemTy;
  uint32_t NumElements;
};

/// Typed load from a pointer.
class LoadInst : public Instruction {
public:
  LoadInst(Type *LoadedTy, Value *Ptr) : Instruction(ValueKind::Load, LoadedTy) {
    assert(Ptr->getType()->isPointer() && "load requires pointer operand");
    addOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Load;
  }
};

/// Typed store to a pointer.
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr, Type *VoidTy)
      : Instruction(ValueKind::Store, VoidTy) {
    assert(Ptr->getType()->isPointer() && "store requires pointer operand");
    addOperand(Val);
    addOperand(Ptr);
  }

  Value *getValue() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Store;
  }
};

/// Pointer arithmetic: result = base + index * elemSize (GEP restricted to
/// flat arrays, which is all the GPU kernels need).
class PtrAddInst : public Instruction {
public:
  PtrAddInst(Value *Base, Value *Index, uint32_t ElemSize)
      : Instruction(ValueKind::PtrAdd, Base->getType()), ElemSize(ElemSize) {
    assert(Base->getType()->isPointer() && "ptradd base must be a pointer");
    assert(Index->getType()->isInteger() && !Index->getType()->isI1() &&
           "ptradd index must be i32/i64");
    addOperand(Base);
    addOperand(Index);
  }

  Value *getBase() const { return getOperand(0); }
  Value *getIndex() const { return getOperand(1); }
  uint32_t getElemSize() const { return ElemSize; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::PtrAdd;
  }

private:
  uint32_t ElemSize;
};

/// Atomic fetch-and-add on device memory; returns the prior value.
class AtomicAddInst : public Instruction {
public:
  AtomicAddInst(Value *Ptr, Value *Val)
      : Instruction(ValueKind::AtomicAdd, Val->getType()) {
    assert(Ptr->getType()->isPointer() && "atomicadd requires pointer");
    addOperand(Ptr);
    addOperand(Val);
  }

  Value *getPointer() const { return getOperand(0); }
  Value *getValue() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::AtomicAdd;
  }
};

/// Reads one coordinate of the GPU thread geometry (threadIdx / blockIdx /
/// blockDim / gridDim).
class GpuIndexInst : public Instruction {
public:
  GpuIndexInst(ValueKind K, uint8_t Dim, Type *I32Ty)
      : Instruction(K, I32Ty), Dim(Dim) {
    assert(isGpuIndexKind(K) && "not a GPU index opcode");
    assert(Dim < 3 && "dimension must be x/y/z");
  }

  /// 0 = x, 1 = y, 2 = z.
  uint8_t getDim() const { return Dim; }

  static bool isGpuIndexKind(ValueKind K) {
    return K >= ValueKind::ThreadIdx && K <= ValueKind::GridDim;
  }

  static bool classof(const Value *V) {
    return isGpuIndexKind(V->getKind());
  }

private:
  uint8_t Dim;
};

/// Block-level execution barrier (__syncthreads equivalent).
class BarrierInst : public Instruction {
public:
  explicit BarrierInst(Type *VoidTy) : Instruction(ValueKind::Barrier, VoidTy) {}

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Barrier;
  }
};

/// Direct call to a device function. Operand 0 is the callee Function.
class CallInst : public Instruction {
public:
  CallInst(Type *RetTy, Value *Callee, const std::vector<Value *> &Args)
      : Instruction(ValueKind::Call, RetTy) {
    reserveOperands(Args.size() + 1);
    addOperand(Callee);
    for (Value *A : Args)
      addOperand(A);
  }

  Function *getCallee() const;
  size_t getNumArgs() const { return getNumOperands() - 1; }
  Value *getArg(size_t I) const { return getOperand(I + 1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Call;
  }
};

/// SSA phi node. Operands are interleaved [value0, block0, value1, block1...]
/// so that block references participate in use-list maintenance (needed when
/// SimplifyCFG rewrites the CFG).
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type *Ty) : Instruction(ValueKind::Phi, Ty) {}

  size_t getNumIncoming() const { return getNumOperands() / 2; }

  Value *getIncomingValue(size_t I) const { return getOperand(2 * I); }
  BasicBlock *getIncomingBlock(size_t I) const;

  void setIncomingValue(size_t I, Value *V) { setOperand(2 * I, V); }
  void setIncomingBlock(size_t I, BasicBlock *BB);

  void addIncoming(Value *V, BasicBlock *BB);
  void removeIncoming(size_t I);

  /// Makes room for \p N incoming pairs without further reallocation.
  void reserveIncoming(size_t N) { reserveOperands(2 * N); }

  /// Returns the incoming value for \p BB, or null if \p BB is not a
  /// predecessor entry of this phi.
  Value *getIncomingValueForBlock(const BasicBlock *BB) const;

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Phi;
  }
};

/// Branch: unconditional (Br, one block operand) or conditional (CondBr,
/// [cond, true-block, false-block]).
class BranchInst : public Instruction {
public:
  /// Unconditional branch.
  BranchInst(BasicBlock *Dest, Type *VoidTy);

  /// Conditional branch.
  BranchInst(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB,
             Type *VoidTy);

  bool isConditional() const { return getKind() == ValueKind::CondBr; }

  Value *getCondition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return getOperand(0);
  }

  size_t getNumSuccessors() const { return isConditional() ? 2 : 1; }
  BasicBlock *getSuccessor(size_t I) const;
  void setSuccessor(size_t I, BasicBlock *BB);

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Br || V->getKind() == ValueKind::CondBr;
  }
};

/// Function return, with optional value.
class RetInst : public Instruction {
public:
  explicit RetInst(Type *VoidTy) : Instruction(ValueKind::Ret, VoidTy) {}

  RetInst(Value *V, Type *VoidTy) : Instruction(ValueKind::Ret, VoidTy) {
    addOperand(V);
  }

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    assert(hasReturnValue() && "void return");
    return getOperand(0);
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Ret;
  }
};

} // namespace pir

#endif // PROTEUS_IR_INSTRUCTIONS_H
