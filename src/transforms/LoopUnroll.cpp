//===- LoopUnroll.cpp - full loop unrolling ---------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Strategy: for a canonical loop (preheader, single latch, dedicated header
// exit) with constant trip count N, emit N copies of the loop body laid out
// sequentially. Header phis are not cloned; iteration k's mapping sends each
// header phi to its iteration-(k-1) latch-incoming value (preheader incoming
// for k = 0). The final mapping (iteration N) rewrites uses of header phis
// outside the loop. The original loop blocks become unreachable and are
// erased.
//
//===----------------------------------------------------------------------===//

#include "transforms/LoopUnroll.h"

#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "transforms/LoopInfo.h"

using namespace proteus;
using namespace pir;

namespace {

struct UnrollPlan {
  // Copied out of the (function-local) LoopInfo so the plan stays valid
  // after the analysis is destroyed.
  BasicBlock *Header;
  ValueIdSet Members;
  BasicBlock *Preheader;
  BasicBlock *Latch;
  BasicBlock *Exit;
  uint64_t TripCount;
  std::vector<BasicBlock *> LoopBlocks; // layout order, header first
  // The function has no other loop, so none is left once this one is
  // unrolled (unrolling removes its back edge and adds none).
  bool OnlyLoop;
};

uint64_t countLoopInstructions(const Loop &L) {
  uint64_t N = 0;
  for (BasicBlock *BB : L.Blocks)
    N += BB->size();
  return N;
}

/// Finds a suitable loop and constant trip count, innermost-first.
std::optional<UnrollPlan> planOne(Function &F, const UnrollOptions &Opts) {
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  for (Loop *L : LI.loopsInnermostFirst()) {
    BasicBlock *Preheader = L->getPreheader();
    BasicBlock *Latch = L->getSingleLatch();
    BasicBlock *Exit = L->getDedicatedExit();
    if (!Preheader || !Latch || !Exit)
      continue;
    if (!Exit->phis().empty())
      continue;
    auto TC = computeConstantTripCount(*L, Opts.MaxTripCount);
    if (!TC)
      continue;
    if (TC->Count * countLoopInstructions(*L) > Opts.MaxExpandedInstructions)
      continue;
    // Only header-defined values may be used outside the loop (values from
    // conditional body blocks would not dominate the exit).
    bool Ok = true;
    for (BasicBlock *BB : L->Blocks) {
      for (Instruction &I : *BB) {
        for (const Use &U : I.uses()) {
          auto *UserInst =
              dyn_cast<Instruction>(static_cast<Value *>(U.TheUser));
          if (!UserInst)
            continue;
          if (!L->contains(UserInst->getParent()) &&
              !(BB == L->Header && isa<PhiInst>(&I))) {
            Ok = false;
            break;
          }
        }
        if (!Ok)
          break;
      }
      if (!Ok)
        break;
    }
    if (!Ok)
      continue;
    UnrollPlan Plan;
    Plan.Header = L->Header;
    Plan.Members = L->Members;
    Plan.Preheader = Preheader;
    Plan.Latch = Latch;
    Plan.Exit = Exit;
    Plan.TripCount = TC->Count;
    Plan.OnlyLoop = LI.loops().size() == 1;
    Plan.LoopBlocks.push_back(L->Header);
    for (BasicBlock *BB : L->Blocks)
      if (BB != L->Header)
        Plan.LoopBlocks.push_back(BB);
    return Plan;
  }
  return std::nullopt;
}

void unroll(Function &F, const UnrollPlan &Plan) {
  Context &Ctx = F.getParent()->getContext();
  BasicBlock *Header = Plan.Header;
  auto InLoop = [&Plan](BasicBlock *BB) { return Plan.Members.contains(BB); };
  std::vector<PhiInst *> HeaderPhis = Header->phis();
  auto *HeaderBr = cast<BranchInst>(Header->getTerminator());
  // The header's unique in-loop successor (the header itself for
  // single-block loops).
  BasicBlock *InLoopSucc = InLoop(HeaderBr->getSuccessor(0))
                               ? HeaderBr->getSuccessor(0)
                               : HeaderBr->getSuccessor(1);

  // The value each header phi (by position) has entering iteration k.
  std::vector<Value *> PhiIn;
  for (PhiInst *Phi : HeaderPhis)
    PhiIn.push_back(Phi->getIncomingValueForBlock(Plan.Preheader));

  // Where the previous piece of straight-line code should branch next.
  // Starts as the preheader's terminator retarget.
  auto retarget = [&](BasicBlock *From, BasicBlock *OldTo, BasicBlock *NewTo) {
    auto *Br = cast<BranchInst>(From->getTerminator());
    for (size_t I = 0; I != Br->getNumSuccessors(); ++I)
      if (Br->getSuccessor(I) == OldTo)
        Br->setSuccessor(I, NewTo);
  };

  BasicBlock *PrevTail = Plan.Preheader; // block whose branch enters next iter
  BasicBlock *PrevTailTarget = Header;   // the successor slot to rewrite

  // One clone map for every iteration, sized for an iteration's blocks,
  // instructions and header phis and cleared between iterations.
  size_t IterValues = 0;
  for (BasicBlock *BB : Plan.LoopBlocks)
    IterValues += 1 + BB->size();
  ValueMap VM(IterValues);
  struct PhiPatch {
    PhiInst *Clone;
    PhiInst *Orig;
  };
  std::vector<PhiPatch> Phis;
  for (uint64_t Iter = 0; Iter != Plan.TripCount; ++Iter) {
    VM.clear();
    Phis.clear();
    // Header phis resolve to this iteration's incoming values.
    for (size_t K = 0; K != HeaderPhis.size(); ++K)
      VM.insert(HeaderPhis[K], PhiIn[K]);
    // Create this iteration's blocks.
    std::string Suffix = ".it" + std::to_string(Iter);
    for (BasicBlock *BB : Plan.LoopBlocks)
      VM.insert(BB, F.createBlock(BB->getName() + Suffix, Ctx.getVoidTy()));

    for (BasicBlock *BB : Plan.LoopBlocks) {
      auto *DstBB = cast<BasicBlock>(VM.lookup(BB));
      for (Instruction &I : *BB) {
        // Header phis are resolved through the iteration mapping.
        if (BB == Header && isa<PhiInst>(&I))
          continue;
        // The header's conditional branch is replaced by an unconditional
        // branch into this iteration's body: the simulated trip count is
        // exact, and keeping the conditional exit edge would break the
        // dominance of final-iteration values used at the exit.
        if (BB == Header && &I == HeaderBr) {
          DstBB->append(std::make_unique<BranchInst>(
              cast<BasicBlock>(VM.lookup(InLoopSucc)), Ctx.getVoidTy()));
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

    // Wire the previous tail into this iteration's header clone.
    auto *HeaderClone = cast<BasicBlock>(VM.lookup(Header));
    retarget(PrevTail, PrevTailTarget, HeaderClone);

    // This iteration's latch clone branches to HeaderClone (the header is a
    // loop block, so the clone map sent the back edge there); that edge must
    // enter the NEXT iteration instead, so it is left dangling here and
    // rewired on the next round (or to the exit after the last one).
    PrevTail = cast<BasicBlock>(VM.lookup(Plan.Latch));
    PrevTailTarget = HeaderClone;

    // Step the phi mapping for the next iteration.
    for (size_t K = 0; K != HeaderPhis.size(); ++K) {
      Value *Next = HeaderPhis[K]->getIncomingValueForBlock(Plan.Latch);
      Value *Mapped = VM.lookup(Next);
      PhiIn[K] = Mapped ? Mapped : Next;
    }
  }

  // After the last iteration (or immediately for trip count 0), control
  // flows to the exit block.
  retarget(PrevTail, PrevTailTarget, Plan.Exit);

  // Rewrite uses of header phis outside the loop with their final mapping
  // (planOne() rejects loops whose other values are used outside).
  std::vector<std::pair<User *, uint32_t>> ExternalUses;
  for (size_t K = 0; K != HeaderPhis.size(); ++K) {
    ExternalUses.clear();
    for (const Use &U : HeaderPhis[K]->uses()) {
      auto *UserInst = dyn_cast<Instruction>(static_cast<Value *>(U.TheUser));
      if (UserInst && !InLoop(UserInst->getParent()))
        ExternalUses.push_back({U.TheUser, U.OperandIndex});
    }
    for (auto &[UserV, Idx] : ExternalUses)
      UserV->setOperand(Idx, PhiIn[K]);
  }

  // The original loop blocks are now unreachable: remove them.
  for (BasicBlock *BB : Plan.LoopBlocks)
    for (Instruction &I : *BB)
      I.dropAllReferences();
  // Phis in the original header may still be referenced by original loop
  // instructions only; all edges were dropped above.
  for (BasicBlock *BB : Plan.LoopBlocks)
    F.eraseBlock(BB);
}

} // namespace

bool LoopUnrollPass::run(Function &F) {
  if (F.isDeclaration())
    return false;
  bool Changed = false;
  // Unroll one loop at a time (analyses are invalidated by the transform);
  // bound the rounds to keep worst-case cost sane.
  for (unsigned Round = 0; Round != 64; ++Round) {
    auto Plan = planOne(F, Opts);
    if (!Plan)
      break;
    unroll(F, *Plan);
    Changed = true;
    if (Plan->OnlyLoop)
      break;
  }
  return Changed;
}
