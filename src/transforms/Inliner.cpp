//===- Inliner.cpp - device function inlining -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/Inliner.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "support/Error.h"

#include <algorithm>

using namespace proteus;
using namespace pir;

namespace {

/// Inlines one call site. Returns false if the callee has no body.
bool inlineCall(CallInst *Call) {
  Function *Callee = Call->getCallee();
  if (Callee->isDeclaration())
    return false;
  Function *Caller = Call->getFunction();
  Module &M = *Caller->getParent();
  Context &Ctx = M.getContext();
  BasicBlock *CallBB = Call->getParent();

  // Split the call block: everything after the call moves to a new block.
  BasicBlock *Cont = Caller->createBlock(CallBB->getName() + ".cont",
                                         Ctx.getVoidTy());
  Caller->moveBlockAfter(Cont, CallBB);
  {
    std::vector<Instruction *> Tail;
    bool Seen = false;
    for (Instruction &I : *CallBB) {
      if (Seen)
        Tail.push_back(&I);
      if (&I == Call)
        Seen = true;
    }
    for (Instruction *I : Tail)
      Cont->append(CallBB->remove(I));
    // The original terminator now lives in Cont: successors' phis must name
    // Cont as the incoming block instead of CallBB.
    for (BasicBlock *S : Cont->successors())
      for (PhiInst *Phi : S->phis())
        for (size_t K = 0; K != Phi->getNumIncoming(); ++K)
          if (Phi->getIncomingBlock(K) == CallBB)
            Phi->setIncomingBlock(K, Cont);
  }

  // Map callee arguments to call operands; clone callee blocks.
  ValueMap VM(Callee->valueIdBound());
  for (size_t I = 0; I != Callee->getNumArgs(); ++I)
    VM.insert(Callee->getArg(I), Call->getArg(I));
  std::vector<BasicBlock *> CalleeBlocks;
  for (BasicBlock &BB : *Callee) {
    BasicBlock *Clone = Caller->createBlock(
        Callee->getName() + "." + BB.getName(), Ctx.getVoidTy());
    VM.insert(&BB, Clone);
    CalleeBlocks.push_back(&BB);
  }

  struct RetSite {
    BasicBlock *Block;
    pir::Value *Val; // null for void
  };
  std::vector<RetSite> Rets;
  struct PhiPatch {
    PhiInst *Clone;
    PhiInst *Orig;
  };
  std::vector<PhiPatch> Phis;

  for (BasicBlock *BB : CalleeBlocks) {
    auto *DstBB = cast<BasicBlock>(VM.lookup(BB));
    for (Instruction &I : *BB) {
      if (auto *Ret = dyn_cast<RetInst>(&I)) {
        Value *RV = nullptr;
        if (Ret->hasReturnValue()) {
          Value *Orig = Ret->getReturnValue();
          Value *Mapped = VM.lookup(Orig);
          RV = Mapped ? Mapped : Orig;
        }
        DstBB->append(std::make_unique<BranchInst>(Cont, Ctx.getVoidTy()));
        Rets.push_back(RetSite{DstBB, RV});
        continue;
      }
      std::unique_ptr<Instruction> C = cloneInstruction(I, VM, Ctx);
      C->setName(I.getName());
      Instruction *Raw = DstBB->append(std::move(C));
      VM.insert(&I, Raw);
      if (auto *P = dyn_cast<PhiInst>(Raw))
        Phis.push_back(PhiPatch{P, cast<PhiInst>(&I)});
    }
  }
  for (const PhiPatch &P : Phis)
    remapPhiIncoming(*P.Clone, *P.Orig, VM, Ctx);

  // Route the caller into the inlined entry.
  auto *EntryClone = cast<BasicBlock>(VM.lookup(&Callee->getEntryBlock()));
  CallBB->append(std::make_unique<BranchInst>(EntryClone, Ctx.getVoidTy()));

  // Materialize the return value.
  if (!Call->getType()->isVoid()) {
    Value *Result = nullptr;
    if (Rets.size() == 1) {
      Result = Rets[0].Val;
    } else {
      auto Phi = std::make_unique<PhiInst>(Call->getType());
      Phi->setName(Callee->getName() + ".ret");
      for (const RetSite &RS : Rets)
        Phi->addIncoming(RS.Val, RS.Block);
      PhiInst *Raw = Phi.get();
      if (Cont->empty())
        Cont->append(std::move(Phi));
      else
        Cont->insertBefore(&Cont->front(), std::move(Phi));
      Result = Raw;
    }
    assert(Result && "non-void callee with no return value");
    Call->replaceAllUsesWith(Result);
  }
  Call->eraseFromParent();
  return true;
}

} // namespace

bool InlinerPass::run(Function &F) {
  // A call uses its callee: when no function has a use there is no call.
  if (const Module *M = F.getParent())
    if (std::none_of(M->functions().begin(), M->functions().end(),
                     [](const auto &G) { return G->hasUses(); }))
      return false;
  bool Changed = false;
  // Budget guards against (unsupported) recursion blowing up the function.
  unsigned Budget = 10000;
  for (;;) {
    CallInst *Site = nullptr;
    for (BasicBlock &BB : F) {
      for (Instruction &I : BB) {
        if (auto *C = dyn_cast<CallInst>(&I)) {
          Site = C;
          break;
        }
      }
      if (Site)
        break;
    }
    if (!Site)
      return Changed;
    if (Site->getCallee()->isDeclaration())
      reportFatalError("cannot inline declaration @" +
                       Site->getCallee()->getName() +
                       " (GPU codegen requires full definitions)");
    if (Budget-- == 0)
      reportFatalError("inliner budget exhausted in @" + F.getName() +
                       " (recursive device code is unsupported)");
    inlineCall(Site);
    Changed = true;
  }
}
