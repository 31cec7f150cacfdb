//===- Dominators.cpp - dominator tree analysis --------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include "ir/Function.h"

#include <algorithm>
#include <cassert>

using namespace pir;

std::vector<BasicBlock *> pir::reversePostOrder(Function &F) {
  std::vector<BasicBlock *> PostOrder;
  if (F.isDeclaration())
    return PostOrder;
  ValueIdSet Seen(F);
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  BasicBlock *Entry = &F.getEntryBlock();
  Stack.push_back({Entry, 0});
  Seen.insert(Entry);
  while (!Stack.empty()) {
    auto &[BB, NextSucc] = Stack.back();
    std::vector<BasicBlock *> Succs = BB->successors();
    if (NextSucc < Succs.size()) {
      BasicBlock *S = Succs[NextSucc++];
      if (Seen.insert(S))
        Stack.push_back({S, 0});
      continue;
    }
    PostOrder.push_back(BB);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

DominatorTree::DominatorTree(Function &F) {
  RPO = reversePostOrder(F);
  Index.assign(F.valueIdBound(), Unreachable);
  for (uint32_t I = 0; I != RPO.size(); ++I)
    Index[RPO[I]->getValueId()] = I;
  IDom.assign(RPO.size(), -1);
  if (RPO.empty())
    return;
  IDom[0] = 0; // entry's idom is itself during iteration

  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = IDom[A];
      while (B > A)
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < RPO.size(); ++I) {
      int NewIDom = -1;
      for (BasicBlock *P : RPO[I]->predecessors()) {
        uint32_t Pos = rpoIndex(P);
        if (Pos == Unreachable)
          continue;
        int PI = static_cast<int>(Pos);
        if (IDom[PI] < 0 && PI != 0)
          continue; // not yet processed
        NewIDom = NewIDom < 0 ? PI : intersect(PI, NewIDom);
      }
      if (NewIDom >= 0 && IDom[I] != NewIDom) {
        IDom[I] = NewIDom;
        Changed = true;
      }
    }
  }

  Children.resize(RPO.size());
  for (unsigned I = 1; I < RPO.size(); ++I)
    if (IDom[I] >= 0)
      Children[IDom[I]].push_back(RPO[I]);

  computeFrontiers();
}

uint32_t DominatorTree::rpoIndex(const BasicBlock *BB) const {
  uint32_t Id = BB->getValueId();
  return Id < Index.size() ? Index[Id] : Unreachable;
}

BasicBlock *DominatorTree::getIDom(BasicBlock *BB) const {
  uint32_t Pos = rpoIndex(BB);
  if (Pos == Unreachable || Pos == 0)
    return nullptr;
  int D = IDom[Pos];
  return D < 0 ? nullptr : RPO[D];
}

bool DominatorTree::dominates(BasicBlock *A, BasicBlock *B) const {
  uint32_t AI = rpoIndex(A);
  uint32_t BI = rpoIndex(B);
  if (AI == Unreachable || BI == Unreachable)
    return false;
  int Cur = static_cast<int>(BI);
  for (;;) {
    if (static_cast<unsigned>(Cur) == AI)
      return true;
    if (Cur == 0)
      return false;
    Cur = IDom[Cur];
    if (Cur < 0)
      return false;
  }
}

bool DominatorTree::dominates(const Instruction *Def,
                              const Instruction *UseSite) const {
  BasicBlock *DefBB = Def->getParent();
  BasicBlock *UseBB = UseSite->getParent();
  if (DefBB != UseBB)
    return dominates(DefBB, UseBB);
  for (Instruction &I : *DefBB) {
    if (&I == Def)
      return true;
    if (&I == UseSite)
      return false;
  }
  assert(false && "instructions not found in their block");
  return false;
}

const std::vector<BasicBlock *> &
DominatorTree::getChildren(BasicBlock *BB) const {
  uint32_t Pos = rpoIndex(BB);
  return Pos == Unreachable ? Empty : Children[Pos];
}

const std::vector<BasicBlock *> &
DominatorTree::getFrontier(BasicBlock *BB) const {
  uint32_t Pos = rpoIndex(BB);
  return Pos == Unreachable ? Empty : Frontier[Pos];
}

std::vector<BasicBlock *>
DominatorTree::iteratedFrontier(const std::vector<BasicBlock *> &Seeds) const {
  std::vector<BasicBlock *> Result, Worklist;
  if (Seeds.empty())
    return Result;
  ValueIdSet InResult(*Seeds.front()->getParent());
  ValueIdSet Visited = InResult;
  for (BasicBlock *BB : Seeds)
    if (isReachable(BB) && Visited.insert(BB))
      Worklist.push_back(BB);
  while (!Worklist.empty()) {
    BasicBlock *BB = Worklist.back();
    Worklist.pop_back();
    for (BasicBlock *Front : getFrontier(BB)) {
      if (InResult.insert(Front))
        Result.push_back(Front);
      // The frontier block itself seeds the next round.
      if (Visited.insert(Front))
        Worklist.push_back(Front);
    }
  }
  return Result;
}

void DominatorTree::computeFrontiers() {
  Frontier.resize(RPO.size());
  for (BasicBlock *BB : RPO) {
    std::vector<BasicBlock *> Preds;
    for (BasicBlock *P : BB->predecessors())
      if (isReachable(P))
        Preds.push_back(P);
    if (Preds.size() < 2)
      continue;
    BasicBlock *IDomBB = getIDom(BB);
    for (BasicBlock *P : Preds) {
      BasicBlock *Runner = P;
      while (Runner && Runner != IDomBB) {
        auto &DF = Frontier[rpoIndex(Runner)];
        if (std::find(DF.begin(), DF.end(), BB) == DF.end())
          DF.push_back(BB);
        Runner = getIDom(Runner);
        if (!Runner && Runner != IDomBB)
          break;
      }
    }
  }
}
