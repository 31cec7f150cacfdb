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

/// Promotes a function's promotable allocas. One walk over the dominator
/// tree renames all of them, yet the edits come out exactly as promoting
/// one alloca at a time in candidate order would make them, so use lists
/// and value ids match too: every alloca's phis are placed first, in that
/// order; the walk only records what each load reads and each block leaves;
/// then the rewrites are replayed alloca by alloca.
class Promoter {
public:
  Promoter(Function &F, DominatorTree &DT, std::vector<AllocaInst *> Allocas)
      : F(F), DT(DT), Allocas(std::move(Allocas)), Row(F),
        Slot(F, NoIndex), LoadRecord(F, NoIndex) {}

  void run() {
    const size_t NumAllocas = Allocas.size();
    uint32_t NumBlocks = 0;
    for (BasicBlock &BB : F)
      Row[&BB] = NumBlocks++;
    for (uint32_t S = 0; S != NumAllocas; ++S)
      Slot[Allocas[S]] = S;
    PhiAt.assign(NumBlocks * NumAllocas, nullptr);
    OutValue.assign(NumBlocks * NumAllocas, Reaching{});
    PhiBlocks.resize(NumAllocas);
    Zero.resize(NumAllocas);
    LoadsOf.resize(NumAllocas);
    for (uint32_t S = 0; S != NumAllocas; ++S)
      placePhis(S);
    walk();
    for (uint32_t S = 0; S != NumAllocas; ++S)
      rewrite(S);
  }

private:
  static constexpr uint32_t NoIndex = ~0u;

  /// A value as the walk saw it. A load being promoted stands for what its
  /// own rewrite will yield, so Load names its record (else NoIndex).
  struct Reaching {
    Value *V = nullptr;
    uint32_t Load = NoIndex;
  };

  /// A load of a promoted alloca: the value reaching it and its alloca.
  struct LoadRec {
    LoadInst *L;
    Reaching In;
    uint32_t Slot;
  };

  /// Places alloca \p S's phis on the iterated dominance frontier of the
  /// blocks that store to it; each goes to its block's front.
  void placePhis(uint32_t S) {
    AllocaInst &A = *Allocas[S];
    Type *Ty = A.getAllocatedType();
    std::vector<BasicBlock *> DefBlocks;
    for (const Use &U : A.uses())
      if (auto *St = dyn_cast<StoreInst>(static_cast<Value *>(U.TheUser)))
        DefBlocks.push_back(St->getParent());
    PhiBlocks[S] = DT.iteratedFrontier(DefBlocks);
    for (BasicBlock *BB : PhiBlocks[S]) {
      auto Phi = std::make_unique<PhiInst>(Ty);
      Phi->setName(A.getName() + ".phi");
      at(PhiAt, BB, S) = Phi.get();
      if (BB->empty())
        BB->append(std::move(Phi));
      else
        BB->insertBefore(&BB->front(), std::move(Phi));
    }
    Zero[S] = F.getParent()->getContext().getZeroValue(Ty);
  }

  /// Iterative DFS over the dominator tree (children popped last-first):
  /// records each promoted load's reaching value and each block's
  /// out-values. A block starts from its dominator's out-values (zero at
  /// the entry), then its phis, then its stores override them.
  void walk() {
    const size_t NumAllocas = Allocas.size();
    struct Frame {
      BasicBlock *BB;
      uint32_t IDomRow;
    };
    std::vector<Frame> Stack{{&F.getEntryBlock(), NoIndex}};
    while (!Stack.empty()) {
      auto [Cur, IDomRow] = Stack.back();
      Stack.pop_back();
      uint32_t R = Row[Cur];
      Reaching *V = &OutValue[R * NumAllocas];
      for (uint32_t S = 0; S != NumAllocas; ++S) {
        if (PhiInst *Phi = PhiAt[R * NumAllocas + S])
          V[S] = Reaching{Phi, NoIndex};
        else if (IDomRow == NoIndex)
          V[S] = Reaching{Zero[S], NoIndex};
        else
          V[S] = OutValue[IDomRow * NumAllocas + S];
      }
      for (Instruction &I : *Cur) {
        if (auto *L = dyn_cast<LoadInst>(&I)) {
          uint32_t S = Slot.lookup(L->getPointer());
          if (S == NoIndex)
            continue;
          LoadRecord[L] = static_cast<uint32_t>(Loads.size());
          LoadsOf[S].push_back(static_cast<uint32_t>(Loads.size()));
          Loads.push_back(LoadRec{L, V[S], S});
        } else if (auto *St = dyn_cast<StoreInst>(&I)) {
          uint32_t S = Slot.lookup(St->getPointer());
          if (S != NoIndex)
            V[S] = Reaching{St->getValue(),
                            LoadRecord.lookup(St->getValue())};
        }
      }
      for (BasicBlock *Child : DT.getChildren(Cur))
        Stack.push_back({Child, R});
    }
  }

  /// The value \p In denotes once allocas 0..S are promoted: a load of one
  /// of them has been replaced by its own reaching value; a load of a later
  /// alloca is still in place.
  Value *resolve(Reaching In, uint32_t S) const {
    while (In.Load != NoIndex && Loads[In.Load].Slot <= S)
      In = Loads[In.Load].In;
    return In.V;
  }

  /// Alloca \p S's rewrites: its loads in walk order, its phis' incomings,
  /// then its stores and itself are erased.
  void rewrite(uint32_t S) {
    for (uint32_t Rec : LoadsOf[S]) {
      LoadInst *L = Loads[Rec].L;
      L->replaceAllUsesWith(resolve(Loads[Rec].In, S));
      L->eraseFromParent();
    }
    // Unreachable predecessors give the zero value.
    for (BasicBlock *PhiBB : PhiBlocks[S]) {
      PhiInst *Phi = at(PhiAt, PhiBB, S);
      for (BasicBlock *Pred : PhiBB->predecessors()) {
        const Reaching &Out = at(OutValue, Pred, S);
        Phi->addIncoming(Out.V ? resolve(Out, S) : Zero[S], Pred);
      }
    }
    AllocaInst &A = *Allocas[S];
    std::vector<Instruction *> Dead;
    for (const Use &U : A.uses())
      Dead.push_back(cast<Instruction>(static_cast<Value *>(U.TheUser)));
    for (Instruction *I : Dead) {
      assert((isa<StoreInst>(I)) && "loads should have been replaced");
      I->eraseFromParent();
    }
    A.eraseFromParent();
  }

  /// Entry (\p BB, alloca \p S) of a per-block, per-alloca table.
  template <typename T>
  T &at(std::vector<T> &Table, const BasicBlock *BB, uint32_t S) {
    return Table[Row.lookup(BB) * Allocas.size() + S];
  }

  Function &F;
  DominatorTree &DT;
  std::vector<AllocaInst *> Allocas;
  ValueIdMap<uint32_t> Row;        // block -> dense row of the tables
  ValueIdMap<uint32_t> Slot;       // alloca -> its index in Allocas
  ValueIdMap<uint32_t> LoadRecord; // promoted load -> its index in Loads
  std::vector<PhiInst *> PhiAt;    // per block and alloca
  std::vector<Reaching> OutValue;  // per block and alloca; V null if unvisited
  std::vector<std::vector<BasicBlock *>> PhiBlocks;
  std::vector<Value *> Zero;
  std::vector<LoadRec> Loads;                // in walk order
  std::vector<std::vector<uint32_t>> LoadsOf; // per alloca, into Loads
};

} // namespace

bool Mem2RegPass::run(Function &F) {
  if (F.isDeclaration())
    return false;
  std::vector<AllocaInst *> Candidates;
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (auto *A = dyn_cast<AllocaInst>(&I))
        if (isPromotable(*A))
          Candidates.push_back(A);
  if (Candidates.empty())
    return false;
  DominatorTree DT(F);
  Promoter(F, DT, std::move(Candidates)).run();
  return true;
}
