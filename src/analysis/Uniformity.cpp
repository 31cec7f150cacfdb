//===- Uniformity.cpp - GPU thread-dependence analysis --------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Uniformity.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

namespace pir {
namespace analysis {

UniformityAnalysis::UniformityAnalysis(Function &F)
    : DT(F), DivergentBranchSet(F), DivergentJoins(F), RegionBranch(F) {
  solve(F);
}

Uniformity UniformityAnalysis::initialFact(const Value &V) const {
  // Constants, kernel arguments, globals, functions and block labels are
  // identical for every thread of a block.
  (void)V;
  return Uniformity::Uniform;
}

bool UniformityAnalysis::calleeIsThreadDependent(const Function *Callee) {
  if (!Callee)
    return true; // malformed call: be conservative
  auto It = CalleeCache.find(Callee);
  if (It != CalleeCache.end())
    return It->second;
  // Seed conservatively so (malformed) recursive call chains terminate.
  CalleeCache[Callee] = true;
  bool Dependent = Callee->isDeclaration(); // unknown body: conservative
  for (BasicBlock &BB : *const_cast<Function *>(Callee)) {
    for (Instruction &I : BB) {
      switch (I.getKind()) {
      case ValueKind::ThreadIdx:
      case ValueKind::AtomicAdd:
      case ValueKind::Load: // may observe thread-interleaved memory
        Dependent = true;
        break;
      case ValueKind::Call:
        if (calleeIsThreadDependent(cast<CallInst>(&I)->getCallee()))
          Dependent = true;
        break;
      default:
        break;
      }
      if (Dependent)
        break;
    }
    if (Dependent)
      break;
  }
  CalleeCache[Callee] = Dependent;
  return Dependent;
}

Uniformity UniformityAnalysis::transfer(const Instruction &I) {
  auto Fact = [&](const Value *V) { return getFact(V); };
  auto MaxOfOperands = [&]() {
    Uniformity U = Uniformity::Uniform;
    for (Value *Op : I.operands())
      U = join(U, Fact(Op));
    return U;
  };
  // True when every operand is uniform; thread-dependence of any operand
  // makes the default result Divergent (injectivity survives arithmetic
  // only through the special cases below).
  auto DefaultCombine = [&]() {
    Uniformity U = MaxOfOperands();
    return U <= Uniformity::Uniform ? U : Uniformity::Divergent;
  };

  switch (I.getKind()) {
  // --- GPU thread geometry -------------------------------------------------
  case ValueKind::ThreadIdx:
    // The taint source: per-thread distinct by construction.
    return Uniformity::Injective;
  case ValueKind::BlockIdx:
  case ValueKind::BlockDim:
  case ValueKind::GridDim:
    // Identical for every thread of a block.
    return Uniformity::Uniform;
  case ValueKind::Barrier:
    return Uniformity::Uniform;

  // --- Arithmetic: injectivity-preserving cases ----------------------------
  case ValueKind::Add:
  case ValueKind::Sub:
  case ValueKind::Xor: {
    Uniformity A = Fact(I.getOperand(0)), B = Fact(I.getOperand(1));
    // tid + c, c - tid, tid ^ c: bijective in tid for uniform c.
    if ((A == Uniformity::Injective && B <= Uniformity::Uniform) ||
        (B == Uniformity::Injective && A <= Uniformity::Uniform))
      return Uniformity::Injective;
    return DefaultCombine();
  }
  case ValueKind::Mul:
  case ValueKind::Shl: {
    Uniformity A = Fact(I.getOperand(0)), B = Fact(I.getOperand(1));
    // tid * k and tid << k stay injective for a nonzero constant k.
    auto NonzeroConst = [](const Value *V) {
      const auto *C = dyn_cast<ConstantInt>(V);
      return C && !C->isZero();
    };
    if ((A == Uniformity::Injective && NonzeroConst(I.getOperand(1))) ||
        (I.getKind() == ValueKind::Mul && B == Uniformity::Injective &&
         NonzeroConst(I.getOperand(0))))
      return Uniformity::Injective;
    return DefaultCombine();
  }

  // --- Casts ---------------------------------------------------------------
  case ValueKind::ZExt:
  case ValueKind::SExt:
  case ValueKind::SIToFP:
  case ValueKind::UIToFP:
    // Widening conversions are injective maps.
    return Fact(I.getOperand(0));

  // --- Memory --------------------------------------------------------------
  case ValueKind::Alloca:
    // The buffer handle itself is the same abstract object for indexing.
    return Uniformity::Uniform;
  case ValueKind::PtrAdd: {
    Uniformity Base = Fact(I.getOperand(0)), Idx = Fact(I.getOperand(1));
    if (Base <= Uniformity::Uniform && Idx == Uniformity::Injective)
      return Uniformity::Injective; // distinct address per thread
    Uniformity U = join(Base, Idx);
    return U <= Uniformity::Uniform ? U : Uniformity::Divergent;
  }
  case ValueKind::Load: {
    Uniformity Ptr = Fact(I.getOperand(0));
    // Same address for all threads -> same value (assuming no intra-kernel
    // racing writes, which SharedMemLint reports separately). Distinct
    // addresses -> unrelated values: thread-dependent, not injective.
    return Ptr <= Uniformity::Uniform ? Uniformity::Uniform
                                      : Uniformity::Divergent;
  }
  case ValueKind::Store:
    return Uniformity::Uniform; // void
  case ValueKind::AtomicAdd:
    // Returns the prior value: depends on thread interleaving.
    return Uniformity::Divergent;

  // --- Comparisons and select ----------------------------------------------
  case ValueKind::ICmp:
  case ValueKind::FCmp:
    // An i1 has no useful injectivity; any thread-dependent input makes the
    // predicate divergent.
    return DefaultCombine();
  case ValueKind::Select: {
    Uniformity Cond = Fact(I.getOperand(0));
    if (Cond > Uniformity::Uniform)
      return Uniformity::Divergent;
    // Uniform condition: all threads pick the same arm.
    return join(Fact(I.getOperand(1)), Fact(I.getOperand(2)));
  }

  // --- Calls ---------------------------------------------------------------
  case ValueKind::Call: {
    const auto &Call = *cast<CallInst>(&I);
    Function *Callee = dyn_cast_if_present<Function>(Call.getOperand(0));
    if (calleeIsThreadDependent(Callee))
      return Uniformity::Divergent;
    // Pure function of uniform arguments.
    Uniformity U = Uniformity::Uniform;
    for (size_t ArgI = 0; ArgI < Call.getNumArgs(); ++ArgI)
      U = join(U, Fact(Call.getArg(ArgI)));
    return U <= Uniformity::Uniform ? U : Uniformity::Divergent;
  }

  // --- Phis: data join plus control dependence -----------------------------
  case ValueKind::Phi: {
    const auto &Phi = *cast<PhiInst>(&I);
    Uniformity U = Uniformity::Unknown;
    for (size_t Inc = 0; Inc < Phi.getNumIncoming(); ++Inc)
      U = join(U, Fact(Phi.getIncomingValue(Inc)));
    if (U == Uniformity::Injective)
      U = Uniformity::Divergent; // merging distinct injective flows
    // A phi at the reconvergence point of a divergent branch selects its
    // incoming value by thread identity even when every incoming value is
    // uniform.
    if (DivergentJoins.contains(I.getParent()))
      U = join(U, Uniformity::Divergent);
    return U;
  }

  // --- Control flow (void results) -----------------------------------------
  case ValueKind::Br:
  case ValueKind::CondBr:
  case ValueKind::Ret:
    return Uniformity::Uniform;

  default:
    // Remaining unary/binary math (FAdd, FDiv, Sqrt, SMin, ...): uniform in,
    // uniform out; thread-dependent in, divergent out.
    return DefaultCombine();
  }
}

std::vector<BasicBlock *>
UniformityAnalysis::markDivergentRegion(BranchInst *Br) {
  std::vector<BasicBlock *> Seeds;
  for (size_t S = 0; S < Br->getNumSuccessors(); ++S)
    Seeds.push_back(Br->getSuccessor(S));
  std::vector<BasicBlock *> Joins = DT.iteratedFrontier(Seeds);

  // Blocks reachable from the divergent successors without crossing a
  // reconvergence join execute under thread-dependent control; a join is
  // never entered, so it starts out visited.
  Function &F = *Br->getFunction();
  ValueIdSet Visited(F);
  for (BasicBlock *J : Joins)
    Visited.insert(J);
  std::vector<BasicBlock *> Stack;
  for (BasicBlock *S : Seeds)
    if (Visited.insert(S))
      Stack.push_back(S);
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    if (!RegionBranch[BB])
      RegionBranch[BB] = Br;
    for (BasicBlock *Succ : BB->successors())
      if (Visited.insert(Succ))
        Stack.push_back(Succ);
  }
  return Joins;
}

void UniformityAnalysis::blockProcessed(
    BasicBlock &BB, const std::function<void(BasicBlock *)> &Enqueue) {
  auto *Br = dyn_cast_if_present<BranchInst>(BB.getTerminator());
  if (!Br || !Br->isConditional())
    return;
  if (getFact(Br->getCondition()) <= Uniformity::Uniform)
    return;
  if (!DivergentBranchSet.insert(Br))
    return; // region already marked
  DivergentBranches.push_back(Br);
  for (BasicBlock *Join : markDivergentRegion(Br)) {
    // Phis at the join are now control-dependent on thread identity:
    // re-evaluate them under the updated DivergentJoins set.
    DivergentJoins.insert(Join);
    Enqueue(Join);
  }
}

} // namespace analysis
} // namespace pir
