//===- SimplifyCFG.cpp - control-flow cleanup -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/SimplifyCFG.h"

#include "ir/Context.h"
#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/Module.h"

#include <algorithm>

using namespace proteus;
using namespace pir;

namespace {

/// Removes \p Pred's entries from phis in \p BB (called when the edge
/// Pred->BB disappears).
void removePredecessorFromPhis(BasicBlock *BB, BasicBlock *Pred) {
  for (PhiInst *Phi : BB->phis()) {
    for (size_t I = 0; I < Phi->getNumIncoming();) {
      if (Phi->getIncomingBlock(I) == Pred)
        Phi->removeIncoming(I);
      else
        ++I;
    }
  }
}

/// condbr on a constant (or with identical successors) -> br.
bool foldConstantBranches(Function &F) {
  Context &Ctx = F.getParent()->getContext();
  bool Changed = false;
  for (BasicBlock *BB : F.blockList()) {
    auto *Br = dyn_cast_if_present<BranchInst>(BB->getTerminator());
    if (!Br || !Br->isConditional())
      continue;
    BasicBlock *TrueBB = Br->getSuccessor(0);
    BasicBlock *FalseBB = Br->getSuccessor(1);
    BasicBlock *Keep = nullptr;
    if (auto *C = dyn_cast<ConstantInt>(Br->getCondition()))
      Keep = C->isZero() ? FalseBB : TrueBB;
    else if (TrueBB == FalseBB)
      Keep = TrueBB;
    if (!Keep)
      continue;
    BasicBlock *Drop = Keep == TrueBB ? FalseBB : TrueBB;
    Br->eraseFromParent();
    BB->append(std::make_unique<BranchInst>(Keep, Ctx.getVoidTy()));
    if (Drop != Keep)
      removePredecessorFromPhis(Drop, BB);
    Changed = true;
  }
  return Changed;
}

/// Deletes blocks not reachable from the entry.
bool removeUnreachableBlocks(Function &F) {
  ValueIdSet Reachable(F);
  for (BasicBlock *BB : reversePostOrder(F))
    Reachable.insert(BB);
  std::vector<BasicBlock *> Doomed;
  for (BasicBlock &BB : F)
    if (!Reachable.contains(&BB))
      Doomed.push_back(&BB);
  if (Doomed.empty())
    return false;
  // Phis in reachable blocks may list doomed predecessors.
  for (BasicBlock *BB : Doomed)
    for (BasicBlock *S : BB->successors())
      if (Reachable.contains(S))
        removePredecessorFromPhis(S, BB);
  // Sever all edges inside the doomed region before deleting anything.
  for (BasicBlock *BB : Doomed)
    for (Instruction &I : *BB)
      I.dropAllReferences();
  for (BasicBlock *BB : Doomed)
    F.eraseBlock(BB);
  return true;
}

/// Merges BB -> Succ when BB's only successor is Succ and Succ's only
/// predecessor is BB.
bool mergeBlockChains(Function &F) {
  bool Changed = false;
  bool LocalChanged = true;
  while (LocalChanged) {
    LocalChanged = false;
    for (BasicBlock *BB : F.blockList()) {
      auto *Br = dyn_cast_if_present<BranchInst>(BB->getTerminator());
      if (!Br || Br->isConditional())
        continue;
      BasicBlock *Succ = Br->getSuccessor(0);
      if (Succ == BB || Succ == &F.getEntryBlock())
        continue;
      std::vector<BasicBlock *> Preds = Succ->predecessors();
      if (Preds.size() != 1)
        continue;
      // Single-pred phis become direct values.
      for (PhiInst *Phi : Succ->phis()) {
        assert(Phi->getNumIncoming() == 1 && "phi in single-pred block");
        Value *In = Phi->getIncomingValue(0);
        Phi->replaceAllUsesWith(In);
        Phi->eraseFromParent();
      }
      Br->eraseFromParent();
      BB->spliceAllFrom(Succ);
      Succ->replaceAllUsesWith(BB); // remaining refs: phis naming Succ as pred
      F.eraseBlock(Succ);
      LocalChanged = true;
      Changed = true;
      break; // block list changed; restart scan
    }
  }
  return Changed;
}

/// phi with one incoming value, or all-identical incoming values, collapses.
bool simplifyPhis(Function &F) {
  bool Changed = false;
  for (BasicBlock &BB : F) {
    for (PhiInst *Phi : BB.phis()) {
      if (Phi->getNumIncoming() == 0)
        continue;
      Value *First = Phi->getIncomingValue(0);
      bool AllSame = true;
      for (size_t I = 1; I != Phi->getNumIncoming(); ++I)
        if (Phi->getIncomingValue(I) != First &&
            Phi->getIncomingValue(I) != Phi) {
          AllSame = false;
          break;
        }
      if (!AllSame || First == Phi)
        continue;
      Phi->replaceAllUsesWith(First);
      Phi->eraseFromParent();
      Changed = true;
    }
  }
  return Changed;
}

} // namespace

bool SimplifyCFGPass::run(Function &F) {
  bool Changed = false;
  bool LocalChanged = true;
  while (LocalChanged) {
    LocalChanged = false;
    LocalChanged |= foldConstantBranches(F);
    LocalChanged |= removeUnreachableBlocks(F);
    LocalChanged |= simplifyPhis(F);
    LocalChanged |= mergeBlockChains(F);
    Changed |= LocalChanged;
  }
  return Changed;
}
