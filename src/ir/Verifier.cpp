//===- Verifier.cpp - PIR well-formedness checks --------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Dominators.h"
#include "ir/Module.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace pir;
using namespace proteus;

std::string VerifyResult::message() const {
  std::string Out;
  for (const std::string &E : Errors) {
    Out += E;
    Out += '\n';
  }
  return Out;
}

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(Function &F, VerifyResult &R) : F(F), R(R) {}

  void run() {
    if (F.isDeclaration())
      return;
    // Judged on this function's errors alone: R may already hold another
    // function's.
    const size_t Before = R.Errors.size();
    checkNumbering();
    if (R.Errors.size() != Before)
      return; // the checks below index side tables by id
    checkBlocks();
    if (R.Errors.size() != Before)
      return; // structural problems make dominance checks meaningless
    DominatorTree DT(F);
    checkSSA(DT);
  }

private:
  void err(const std::string &Msg) {
    R.Errors.push_back("function @" + F.getName() + ": " + Msg);
  }

  /// Every argument, block and instruction has its own id below the
  /// function's bound: the side tables of the passes index by it.
  void checkNumbering() {
    std::vector<bool> Taken(F.valueIdBound());
    auto check = [&](const Value &V) {
      uint32_t Id = V.getValueId();
      if (Id < Taken.size() && !Taken[Id])
        Taken[Id] = true;
      else
        err(formatString("%s '%s' has id %u, shared or not below the bound %u",
                         valueKindName(V.getKind()), V.getName().c_str(), Id,
                         F.valueIdBound()));
    };
    for (const auto &A : F.args())
      check(*A);
    for (BasicBlock &BB : F) {
      check(BB);
      for (Instruction &I : BB)
        check(I);
    }
  }

  void checkBlocks() {
    for (BasicBlock &BB : F) {
      if (BB.empty()) {
        err("block has no instructions");
        continue;
      }
      Instruction *Term = BB.getTerminator();
      if (!Term) {
        err("block does not end with a terminator");
        continue;
      }
      bool SeenNonPhi = false;
      for (Instruction &I : BB) {
        if (I.isTerminator() && &I != Term)
          err("terminator in the middle of a block");
        if (isa<PhiInst>(&I)) {
          if (SeenNonPhi)
            err("phi after non-phi instruction");
        } else {
          SeenNonPhi = true;
        }
        checkInstruction(I);
      }
    }
  }

  void checkInstruction(Instruction &I) {
    for (Value *Op : I.operands()) {
      if (auto *OpInst = dyn_cast<Instruction>(Op)) {
        if (!OpInst->getParent() || OpInst->getFunction() != &F)
          err("operand instruction from another function");
      } else if (auto *A = dyn_cast<Argument>(Op)) {
        if (A->getParent() != &F)
          err("argument operand from another function");
      }
    }
    switch (I.getKind()) {
    case ValueKind::Ret: {
      auto &Ret = cast<RetInst>(I);
      if (F.getReturnType()->isVoid()) {
        if (Ret.hasReturnValue())
          err("void function returns a value");
      } else if (!Ret.hasReturnValue()) {
        err("non-void function returns nothing");
      } else if (Ret.getReturnValue()->getType() != F.getReturnType()) {
        err("return value type mismatch");
      }
      return;
    }
    case ValueKind::Phi: {
      auto &Phi = cast<PhiInst>(I);
      std::vector<BasicBlock *> Preds = I.getParent()->predecessors();
      if (Phi.getNumIncoming() != Preds.size()) {
        err("phi incoming count does not match predecessor count");
        return;
      }
      ValueIdSet Seen(F);
      for (size_t K = 0; K != Phi.getNumIncoming(); ++K) {
        BasicBlock *In = Phi.getIncomingBlock(K);
        if (std::find(Preds.begin(), Preds.end(), In) == Preds.end())
          err("phi incoming block is not a predecessor");
        else if (!Seen.insert(In))
          err("phi lists a predecessor twice");
        if (Phi.getIncomingValue(K)->getType() != Phi.getType())
          err("phi incoming value type mismatch");
      }
      return;
    }
    case ValueKind::Call: {
      auto &Call = cast<CallInst>(I);
      // The accessor cast<Function>s operand 0; a call whose callee slot
      // holds a null or non-function value (possible after a bad RAUW or a
      // corrupted bitcode round trip) must be diagnosed, not dereferenced.
      Function *Callee = dyn_cast_if_present<Function>(Call.getOperand(0));
      if (!Callee) {
        err("call callee is not a function");
        return;
      }
      if (Callee->getParent() != F.getParent()) {
        err("call to function outside this module");
        return;
      }
      if (Callee->isKernel())
        err("kernels cannot be called from device code");
      if (Call.getNumArgs() != Callee->getNumArgs()) {
        err("call arity mismatch");
        return;
      }
      for (size_t K = 0; K != Call.getNumArgs(); ++K)
        if (Call.getArg(K)->getType() != Callee->getArg(K)->getType())
          err("call argument type mismatch");
      if (Call.getType() != Callee->getReturnType())
        err("call result type mismatch");
      return;
    }
    case ValueKind::Load:
      if (!cast<LoadInst>(I).getPointer()->getType()->isPointer())
        err("load pointer operand must be pointer-typed");
      return;
    case ValueKind::Store: {
      auto &St = cast<StoreInst>(I);
      if (!St.getPointer()->getType()->isPointer()) {
        err("store pointer operand must be pointer-typed");
        return;
      }
      // Pointers are opaque, so the pointee contract is only checkable when
      // the address is a direct alloca (chasing ptradd chains would claim
      // type knowledge reinterpreting accesses legitimately lack).
      if (auto *A = dyn_cast<AllocaInst>(St.getPointer()))
        if (St.getValue()->getType() != A->getAllocatedType())
          err("store value type does not match the allocated type of its "
              "alloca pointee");
      return;
    }
    case ValueKind::PtrAdd: {
      auto &PA = cast<PtrAddInst>(I);
      if (!PA.getBase()->getType()->isPointer())
        err("ptradd base operand must be pointer-typed");
      if (!PA.getIndex()->getType()->isInteger() ||
          PA.getIndex()->getType()->isI1())
        err("ptradd index must be i32/i64");
      return;
    }
    case ValueKind::AtomicAdd:
      if (!cast<AtomicAddInst>(I).getPointer()->getType()->isPointer())
        err("atomicadd pointer operand must be pointer-typed");
      return;
    case ValueKind::CondBr:
      if (!cast<BranchInst>(I).getCondition()->getType()->isI1())
        err("conditional branch condition must be i1");
      return;
    default:
      break;
    }
    if (auto *Bin = dyn_cast<BinaryInst>(&I)) {
      Type *Ty = Bin->getType();
      bool IsFloatOp = I.getKind() >= ValueKind::FAdd &&
                       I.getKind() <= ValueKind::FMax &&
                       I.getKind() != ValueKind::SMin &&
                       I.getKind() != ValueKind::SMax;
      if (IsFloatOp && !Ty->isFloatingPoint())
        err("floating-point op on non-FP type");
      bool IsIntOp = (I.getKind() >= ValueKind::Add &&
                      I.getKind() <= ValueKind::AShr) ||
                     I.getKind() == ValueKind::SMin ||
                     I.getKind() == ValueKind::SMax;
      if (IsIntOp && !Ty->isInteger())
        err("integer op on non-integer type");
      return;
    }
    if (auto *C = dyn_cast<CastInst>(&I)) {
      Type *Src = C->getSource()->getType();
      Type *Dst = C->getType();
      switch (I.getKind()) {
      case ValueKind::Trunc:
        if (!Src->isInteger() || !Dst->isInteger() ||
            Src->integerBitWidth() <= Dst->integerBitWidth())
          err("invalid trunc");
        break;
      case ValueKind::ZExt:
      case ValueKind::SExt:
        if (!Src->isInteger() || !Dst->isInteger() ||
            Src->integerBitWidth() >= Dst->integerBitWidth())
          err("invalid integer extension");
        break;
      case ValueKind::FPExt:
        if (!Src->isF32() || !Dst->isF64())
          err("invalid fpext");
        break;
      case ValueKind::FPTrunc:
        if (!Src->isF64() || !Dst->isF32())
          err("invalid fptrunc");
        break;
      case ValueKind::SIToFP:
      case ValueKind::UIToFP:
        if (!Src->isInteger() || !Dst->isFloatingPoint())
          err("invalid int-to-fp cast");
        break;
      case ValueKind::FPToSI:
        if (!Src->isFloatingPoint() || !Dst->isInteger())
          err("invalid fp-to-int cast");
        break;
      case ValueKind::IntToPtr:
        if (!Src->isI64() || !Dst->isPointer())
          err("inttoptr requires i64 source");
        break;
      case ValueKind::PtrToInt:
        if (!Src->isPointer() || !Dst->isI64())
          err("ptrtoint requires i64 destination");
        break;
      default:
        break;
      }
      return;
    }
  }

  void checkSSA(DominatorTree &DT) {
    for (BasicBlock &BB : F) {
      if (!DT.isReachable(&BB))
        continue;
      for (Instruction &I : BB) {
        if (auto *Phi = dyn_cast<PhiInst>(&I)) {
          for (size_t K = 0; K != Phi->getNumIncoming(); ++K) {
            Value *In = Phi->getIncomingValue(K);
            auto *Def = dyn_cast<Instruction>(In);
            if (!Def)
              continue;
            BasicBlock *InBB = Phi->getIncomingBlock(K);
            // Definition must be available at the end of the incoming edge.
            if (!DT.isReachable(Def->getParent()))
              err("phi incoming defined in unreachable block");
            else if (!DT.dominates(Def->getParent(), InBB))
              err("phi incoming value does not dominate incoming edge");
          }
          continue;
        }
        for (Value *Op : I.operands()) {
          auto *Def = dyn_cast<Instruction>(Op);
          if (!Def)
            continue;
          if (!DT.isReachable(Def->getParent())) {
            err("use of value defined in unreachable block");
            continue;
          }
          if (!DT.dominates(Def, &I))
            err(formatString("definition of '%s' does not dominate a use",
                             Def->getName().c_str()));
        }
      }
    }
  }

  Function &F;
  VerifyResult &R;
};

} // namespace

VerifyResult pir::verifyFunction(Function &F) {
  VerifyResult R;
  FunctionVerifier(F, R).run();
  return R;
}

VerifyResult pir::verifyModule(Module &M) {
  VerifyResult R;
  for (const auto &F : M.functions()) {
    if (const auto &Ann = F->getJitAnnotation()) {
      for (uint32_t Idx : Ann->ArgIndices)
        if (Idx == 0 || Idx > F->getNumArgs())
          R.Errors.push_back("function @" + F->getName() +
                             ": jit annotation index out of range");
      if (!F->isKernel())
        R.Errors.push_back("function @" + F->getName() +
                           ": jit annotation on non-kernel");
    }
    FunctionVerifier(*F, R).run();
  }
  return R;
}
