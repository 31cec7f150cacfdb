//===- DCE.cpp - dead code elimination ---------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/DCE.h"

#include "ir/Function.h"

using namespace proteus;
using namespace pir;

namespace {

bool isTriviallyDead(Instruction &I) {
  if (I.hasUses())
    return false;
  if (I.getType()->isVoid())
    return false; // stores/branches/barriers handled by side-effect check
  return !I.mayHaveSideEffects();
}

} // namespace

bool DCEPass::run(Function &F) {
  bool Changed = false;
  // The membership set guarantees each instruction is enqueued (and thus
  // erased) at most once, so the worklist never holds a dangling pointer.
  std::vector<Instruction *> Worklist;
  ValueIdSet InList(F);
  auto enqueue = [&](Instruction *I) {
    if (InList.insert(I))
      Worklist.push_back(I);
  };
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (isTriviallyDead(I))
        enqueue(&I);

  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    InList.erase(I);
    if (!isTriviallyDead(*I))
      continue;
    // Operands may become dead once this instruction goes away.
    std::span<Value *const> Live = I->operands();
    std::vector<Value *> Ops(Live.begin(), Live.end());
    I->eraseFromParent();
    Changed = true;
    for (Value *Op : Ops) {
      auto *OpInst = dyn_cast<Instruction>(Op);
      if (OpInst && OpInst->getParent() && isTriviallyDead(*OpInst))
        enqueue(OpInst);
    }
  }
  return Changed;
}
