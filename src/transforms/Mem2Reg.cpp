//===- Mem2Reg.cpp - promote allocas to SSA registers -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/Mem2Reg.h"

#include "ir/Context.h"
#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/Module.h"

using namespace proteus;
using namespace pir;

namespace {

/// An alloca is promotable when it is a single element whose pointer is used
/// only by loads of the allocated type and stores *into* it (never stored as
/// a value, never offset).
bool isPromotable(AllocaInst &A) {
  if (A.getNumElements() != 1)
    return false;
  for (const Use &U : A.uses()) {
    auto *I = dyn_cast<Instruction>(static_cast<Value *>(U.TheUser));
    if (!I)
      return false;
    if (auto *L = dyn_cast<LoadInst>(I)) {
      if (L->getType() != A.getAllocatedType())
        return false;
      continue;
    }
    if (auto *S = dyn_cast<StoreInst>(I)) {
      if (S->getPointer() != &A || S->getValue() == &A)
        return false;
      if (S->getValue()->getType() != A.getAllocatedType())
        return false;
      continue;
    }
    return false;
  }
  return true;
}

class Promoter {
public:
  Promoter(Function &F, DominatorTree &DT)
      : F(F), DT(DT), PhiAt(F), OutValue(F) {}

  bool promote(AllocaInst &A) {
    Type *Ty = A.getAllocatedType();
    Context &Ctx = F.getParent()->getContext();

    // Blocks containing stores define the value; the iterated dominance
    // frontier of those gets a phi.
    std::vector<BasicBlock *> DefBlocks;
    for (const Use &U : A.uses())
      if (auto *S = dyn_cast<StoreInst>(static_cast<Value *>(U.TheUser)))
        DefBlocks.push_back(S->getParent());
    std::vector<BasicBlock *> PhiBlocks = DT.iteratedFrontier(DefBlocks);
    for (BasicBlock *BB : PhiBlocks) {
      auto Phi = std::make_unique<PhiInst>(Ty);
      Phi->setName(A.getName() + ".phi");
      PhiAt[BB] = Phi.get();
      if (BB->empty())
        BB->append(std::move(Phi));
      else
        BB->insertBefore(&BB->front(), std::move(Phi));
    }

    // Rename along the dominator tree.
    Value *Undef = Ctx.getZeroValue(Ty);
    rename(&F.getEntryBlock(), Undef, A, PhiBlocks);
    for (BasicBlock *BB : PhiBlocks)
      PhiAt[BB] = nullptr;

    // All loads/stores rewritten; drop the alloca.
    std::vector<Instruction *> Dead;
    for (const Use &U : A.uses())
      Dead.push_back(cast<Instruction>(static_cast<Value *>(U.TheUser)));
    for (Instruction *I : Dead) {
      assert((isa<StoreInst>(I)) && "loads should have been replaced");
      I->eraseFromParent();
    }
    A.eraseFromParent();
    return true;
  }

private:
  void rename(BasicBlock *BB, Value *Incoming, AllocaInst &A,
              const std::vector<BasicBlock *> &PhiBlocks) {
    // Iterative DFS over the dominator tree carrying the reaching value.
    struct Frame {
      BasicBlock *BB;
      Value *In;
    };
    std::vector<Frame> Stack{{BB, Incoming}};
    std::vector<BasicBlock *> Visited;

    // First pass: compute the value leaving each block and rewrite
    // loads/stores, walking the dominator tree (so the incoming value of a
    // child is the parent's out-value... except phi blocks override).
    while (!Stack.empty()) {
      auto [Cur, In] = Stack.back();
      Stack.pop_back();
      Value *V = In;
      if (PhiInst *Phi = PhiAt[Cur])
        V = Phi;
      for (auto I = Cur->begin(); I != Cur->end();) {
        Instruction &Inst = *I;
        ++I;
        if (auto *L = dyn_cast<LoadInst>(&Inst)) {
          if (L->getPointer() == &A) {
            L->replaceAllUsesWith(V);
            L->eraseFromParent();
          }
          continue;
        }
        if (auto *S = dyn_cast<StoreInst>(&Inst)) {
          if (S->getPointer() == &A)
            V = S->getValue();
          continue;
        }
      }
      OutValue[Cur] = V;
      Visited.push_back(Cur);
      for (BasicBlock *Child : DT.getChildren(Cur))
        Stack.push_back({Child, V});
    }

    // Second pass: fill phi incomings from each predecessor's out-value
    // (unreachable predecessors get the incoming default).
    for (BasicBlock *PhiBB : PhiBlocks) {
      PhiInst *Phi = PhiAt[PhiBB];
      for (BasicBlock *Pred : PhiBB->predecessors()) {
        Value *V = OutValue[Pred];
        Phi->addIncoming(V ? V : Incoming, Pred);
      }
    }
    for (BasicBlock *Cur : Visited)
      OutValue[Cur] = nullptr;
  }

  Function &F;
  DominatorTree &DT;
  /// Per block, the phi of the alloca being promoted and the value leaving
  /// the block; both are reset after each alloca.
  ValueIdMap<PhiInst *> PhiAt;
  ValueIdMap<Value *> OutValue;
};

} // namespace

bool Mem2RegPass::run(Function &F) {
  if (F.isDeclaration())
    return false;
  bool Changed = false;
  DominatorTree DT(F);
  std::vector<AllocaInst *> Candidates;
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (auto *A = dyn_cast<AllocaInst>(&I))
        if (isPromotable(*A))
          Candidates.push_back(A);
  Promoter P(F, DT);
  for (AllocaInst *A : Candidates)
    Changed |= P.promote(*A);
  return Changed;
}
