//===- BasicBlock.cpp - PIR basic block -------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"

#include "ir/Function.h"

#include <algorithm>

using namespace pir;

Instruction *BasicBlock::append(std::unique_ptr<Instruction> I) {
  assert(I && "appending null instruction");
  assert(!I->Parent && "instruction already linked");
  I->Parent = this;
  Parent->numberValue(*I);
  Insts.pushBack(I.get());
  return I.release();
}

Instruction *BasicBlock::insertBefore(Instruction *Pos,
                                      std::unique_ptr<Instruction> I) {
  assert(Pos->Parent == this && "position not in this block");
  assert(I && !I->Parent && "instruction already linked");
  I->Parent = this;
  Parent->numberValue(*I);
  Insts.insertBefore(Pos, I.get());
  return I.release();
}

std::unique_ptr<Instruction> BasicBlock::remove(Instruction *I) {
  assert(I->Parent == this && "instruction not in this block");
  Insts.unlink(I);
  I->Parent = nullptr;
  return std::unique_ptr<Instruction>(I);
}

void BasicBlock::erase(Instruction *I) {
  assert(!I->hasUses() && "erasing an instruction that still has uses");
  std::unique_ptr<Instruction> Owned = remove(I);
  Owned->dropAllReferences();
  // Owned destructor runs here.
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Out;
  const Instruction *Term = getTerminator();
  if (const auto *BI = dyn_cast_if_present<BranchInst>(Term))
    for (size_t I = 0, E = BI->getNumSuccessors(); I != E; ++I)
      Out.push_back(BI->getSuccessor(I));
  return Out;
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> Out;
  for (const Use &U : uses()) {
    auto *Br = dyn_cast<BranchInst>(static_cast<Value *>(U.TheUser));
    if (!Br || !Br->getParent())
      continue;
    BasicBlock *Pred = Br->getParent();
    if (std::find(Out.begin(), Out.end(), Pred) == Out.end())
      Out.push_back(Pred);
  }
  return Out;
}

std::vector<PhiInst *> BasicBlock::phis() {
  std::vector<PhiInst *> Out;
  for (Instruction &I : *this) {
    auto *P = dyn_cast<PhiInst>(&I);
    if (!P)
      break;
    Out.push_back(P);
  }
  return Out;
}

void BasicBlock::spliceAllFrom(BasicBlock *Donor) {
  while (Instruction *I = Donor->Insts.front())
    append(Donor->remove(I));
}
