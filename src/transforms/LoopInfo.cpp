//===- LoopInfo.cpp - natural loop analysis --------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/LoopInfo.h"

#include "ir/Function.h"
#include "ir/OpSemantics.h"

#include <algorithm>
#include <functional>

using namespace proteus;
using namespace pir;

BasicBlock *Loop::getSingleLatch() const {
  BasicBlock *Latch = nullptr;
  for (BasicBlock *P : Header->predecessors()) {
    if (!contains(P))
      continue;
    if (Latch)
      return nullptr;
    Latch = P;
  }
  return Latch;
}

BasicBlock *Loop::getPreheader() const {
  BasicBlock *Pre = nullptr;
  for (BasicBlock *P : Header->predecessors()) {
    if (contains(P))
      continue;
    if (Pre)
      return nullptr;
    Pre = P;
  }
  if (!Pre)
    return nullptr;
  std::vector<BasicBlock *> Succs = Pre->successors();
  if (Succs.size() != 1 || Succs[0] != Header)
    return nullptr;
  return Pre;
}

BasicBlock *Loop::getDedicatedExit() const {
  auto *Br = dyn_cast_if_present<BranchInst>(Header->getTerminator());
  if (!Br || !Br->isConditional())
    return nullptr;
  BasicBlock *Exit = nullptr;
  for (size_t I = 0; I != 2; ++I) {
    BasicBlock *S = Br->getSuccessor(I);
    if (contains(S))
      continue;
    if (Exit)
      return nullptr; // both sides leave the loop
    Exit = S;
  }
  if (!Exit)
    return nullptr;
  // The exit must be reached only through this loop's header.
  std::vector<BasicBlock *> Preds = Exit->predecessors();
  if (Preds.size() != 1 || Preds[0] != Header)
    return nullptr;
  // No other in-loop block may branch out of the loop.
  for (BasicBlock *BB : Blocks) {
    if (BB == Header)
      continue;
    for (BasicBlock *S : BB->successors())
      if (!contains(S))
        return nullptr;
  }
  return Exit;
}

LoopInfo::LoopInfo(Function &F, const DominatorTree &DT) : InnermostMap(F) {
  // A header H has a back edge from each latch T that H dominates. Build
  // each loop's block set by walking predecessors from the latches until
  // the header.
  for (BasicBlock *BB : DT.getRPO()) {
    std::vector<BasicBlock *> Work;
    for (BasicBlock *P : BB->predecessors())
      if (DT.isReachable(P) && DT.dominates(BB, P))
        Work.push_back(P);
    if (Work.empty())
      continue;
    auto L = std::make_unique<Loop>();
    L->Header = BB;
    L->Members = ValueIdSet(F);
    L->Members.insert(BB);
    while (!Work.empty()) {
      BasicBlock *Cur = Work.back();
      Work.pop_back();
      if (!L->Members.insert(Cur))
        continue;
      for (BasicBlock *P : Cur->predecessors())
        if (DT.isReachable(P))
          Work.push_back(P);
    }
    for (BasicBlock &B : F)
      if (L->contains(&B))
        L->Blocks.push_back(&B);
    AllLoops.push_back(std::move(L));
  }

  // Nesting: loop A is inside loop B if B contains A's header and A != B.
  // With headers in RPO order, outer loops come first.
  for (auto &Inner : AllLoops) {
    Loop *Best = nullptr;
    for (auto &Outer : AllLoops) {
      if (Outer.get() == Inner.get())
        continue;
      if (!Outer->contains(Inner->Header))
        continue;
      if (!Best || Best->contains(Outer->Header))
        Best = Outer.get();
    }
    Inner->Parent = Best;
    if (Best)
      Best->SubLoops.push_back(Inner.get());
  }

  for (auto &L : AllLoops)
    for (BasicBlock *BB : L->Blocks) {
      Loop *&Slot = InnermostMap[BB];
      if (!Slot || Slot->Blocks.size() > L->Blocks.size())
        Slot = L.get();
    }
}

std::vector<Loop *> LoopInfo::loopsInnermostFirst() const {
  std::vector<Loop *> Out;
  for (const auto &L : AllLoops)
    Out.push_back(L.get());
  std::stable_sort(Out.begin(), Out.end(), [](Loop *A, Loop *B) {
    return A->depth() > B->depth();
  });
  return Out;
}

std::optional<TripCount> proteus::computeConstantTripCount(Loop &L,
                                                           uint64_t MaxTrip) {
  BasicBlock *Preheader = L.getPreheader();
  BasicBlock *Latch = L.getSingleLatch();
  BasicBlock *Exit = L.getDedicatedExit();
  if (!Preheader || !Latch || !Exit)
    return std::nullopt;
  auto *HeaderBr = cast<BranchInst>(L.Header->getTerminator());
  bool ExitOnFalse = HeaderBr->getSuccessor(1) == Exit;

  // Collect the header phis whose evolution we can simulate: preheader
  // incoming must be a constant.
  // Each evolving phi with its latch incoming and its current value; a
  // loop has few header phis, so lookups scan the list.
  struct EvolvingPhi {
    PhiInst *Phi;
    Value *Next;
    uint64_t Cur;
  };
  std::vector<EvolvingPhi> Evolving;
  for (PhiInst *Phi : L.Header->phis()) {
    Value *Init = Phi->getIncomingValueForBlock(Preheader);
    Value *Next = Phi->getIncomingValueForBlock(Latch);
    if (!Init || !Next)
      return std::nullopt;
    auto *C = dyn_cast<ConstantInt>(Init);
    if (!C)
      continue; // non-evolving phi (e.g. FP accumulator); fine unless the
                // condition depends on it.
    Evolving.push_back({Phi, Next, C->getZExtValue()});
  }

  // Evaluates \p V given the current environment; pure integer chains only.
  // Depth-limited to keep pathological inputs cheap.
  std::function<std::optional<uint64_t>(Value *, unsigned)> Eval =
      [&](Value *V, unsigned Depth) -> std::optional<uint64_t> {
    if (auto *C = dyn_cast<ConstantInt>(V))
      return C->getZExtValue();
    for (const EvolvingPhi &E : Evolving)
      if (E.Phi == V)
        return E.Cur;
    if (Depth > 16)
      return std::nullopt;
    auto *I = dyn_cast<Instruction>(V);
    if (!I || !L.contains(I->getParent()))
      return std::nullopt;
    if (auto *Bin = dyn_cast<BinaryInst>(I)) {
      if (!Bin->getType()->isInteger())
        return std::nullopt;
      auto A = Eval(Bin->getLHS(), Depth + 1);
      auto B = Eval(Bin->getRHS(), Depth + 1);
      if (!A || !B)
        return std::nullopt;
      return pir::sem::evalBinary(I->getKind(), Bin->getType(), *A, *B);
    }
    if (auto *Cmp = dyn_cast<ICmpInst>(I)) {
      auto A = Eval(Cmp->getLHS(), Depth + 1);
      auto B = Eval(Cmp->getRHS(), Depth + 1);
      if (!A || !B)
        return std::nullopt;
      return pir::sem::evalICmp(Cmp->getPredicate(),
                                Cmp->getLHS()->getType(), *A, *B)
                 ? 1
                 : 0;
    }
    if (auto *Cast = dyn_cast<CastInst>(I)) {
      if (!Cast->getType()->isInteger() ||
          !Cast->getSource()->getType()->isInteger())
        return std::nullopt;
      auto A = Eval(Cast->getSource(), Depth + 1);
      if (!A)
        return std::nullopt;
      return pir::sem::evalCast(I->getKind(), Cast->getSource()->getType(),
                                Cast->getType(), *A);
    }
    if (auto *Sel = dyn_cast<SelectInst>(I)) {
      auto C = Eval(Sel->getCondition(), Depth + 1);
      if (!C)
        return std::nullopt;
      return Eval(*C & 1 ? Sel->getTrueValue() : Sel->getFalseValue(),
                  Depth + 1);
    }
    return std::nullopt;
  };

  Value *Cond = HeaderBr->getCondition();
  for (uint64_t Iter = 0; Iter <= MaxTrip; ++Iter) {
    auto CondVal = Eval(Cond, 0);
    if (!CondVal)
      return std::nullopt;
    bool TakesExit = ExitOnFalse ? (*CondVal & 1) == 0 : (*CondVal & 1) == 1;
    if (TakesExit)
      return TripCount{Iter};
    // Step all evolving phis in parallel.
    std::vector<uint64_t> NextVals;
    for (const EvolvingPhi &E : Evolving) {
      auto NV = Eval(E.Next, 0);
      if (!NV)
        return std::nullopt;
      NextVals.push_back(*NV);
    }
    for (size_t K = 0; K != Evolving.size(); ++K)
      Evolving[K].Cur = NextVals[K];
  }
  return std::nullopt; // exceeds MaxTrip
}
