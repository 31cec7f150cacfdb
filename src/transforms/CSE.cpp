//===- CSE.cpp - common subexpression elimination ------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/CSE.h"

#include "ir/Dominators.h"
#include "ir/Function.h"

#include <bit>

using namespace proteus;
using namespace pir;

namespace {

/// True for instructions CSE may deduplicate: pure, deterministic, not
/// control- or memory-dependent.
bool isCSECandidate(Instruction &I) {
  switch (I.getKind()) {
  case ValueKind::Load:   // would need memory dependence analysis
  case ValueKind::Alloca: // identity matters
  case ValueKind::Call:
  case ValueKind::Phi:
    return false;
  default:
    return !I.getType()->isVoid() && !I.mayHaveSideEffects();
  }
}

/// The non-operand part of an expression's identity: predicate, element
/// size, dimension or cast destination type.
uint64_t extraOf(Instruction &I) {
  if (auto *C = dyn_cast<ICmpInst>(&I))
    return static_cast<uint64_t>(C->getPredicate());
  if (auto *C = dyn_cast<FCmpInst>(&I))
    return static_cast<uint64_t>(C->getPredicate()) | 0x100;
  if (auto *P = dyn_cast<PtrAddInst>(&I))
    return P->getElemSize();
  if (auto *G = dyn_cast<GpuIndexInst>(&I))
    return G->getDim();
  if (isa<CastInst>(&I))
    return static_cast<uint64_t>(I.getType()->getKind()) | 0x200;
  return 0;
}

/// Operand \p Idx of \p I, with a commutative pair ordered by address.
Value *keyOperand(Instruction &I, size_t Idx) {
  if (I.getNumOperands() == 2)
    if (auto *B = dyn_cast<BinaryInst>(&I); B && B->isCommutative()) {
      Value *L = I.getOperand(0), *R = I.getOperand(1);
      if (L > R)
        std::swap(L, R);
      return Idx == 0 ? L : R;
    }
  return I.getOperand(Idx);
}

uint64_t mix(uint64_t H, uint64_t V) {
  return (std::rotl(H, 29) ^ V) * 0x9e3779b97f4a7c15ull;
}

/// Scoped open-addressing table walk over the dominator tree. The table
/// holds leader instructions; a candidate is compared against a leader's
/// live operands, which are final by the time the leader is inserted (they
/// dominate it, so the walk already visited and canonicalized them).
/// Leaving a dominator-tree scope pops that scope's insertions in LIFO
/// order, which restores exactly the table the scope started from and so
/// keeps every linear-probe chain intact.
class DomTreeCSE {
public:
  explicit DomTreeCSE(Function &F) : DT(F) {
    size_t Insts = 0;
    for (BasicBlock &BB : F)
      Insts += BB.size();
    Table.assign(std::bit_ceil(std::max<size_t>(2 * Insts, 16)), nullptr);
    Mask = Table.size() - 1;
  }

  bool run(Function &F) {
    if (F.isDeclaration())
      return false;
    return visit(&F.getEntryBlock());
  }

private:
  /// The slot holding \p I's leader, or the empty slot where \p I belongs.
  size_t probe(Instruction &I, uint64_t Extra) const {
    size_t NumOps = I.getNumOperands();
    uint64_t H = mix(static_cast<uint64_t>(I.getKind()), Extra);
    for (size_t Op = 0; Op != NumOps; ++Op)
      H = mix(H, reinterpret_cast<uint64_t>(keyOperand(I, Op)));
    for (size_t Slot = (H ^ (H >> 32)) & Mask;; Slot = (Slot + 1) & Mask) {
      Instruction *L = Table[Slot];
      if (!L)
        return Slot;
      if (L->getKind() != I.getKind() || L->getNumOperands() != NumOps ||
          extraOf(*L) != Extra)
        continue;
      size_t Op = 0;
      while (Op != NumOps && keyOperand(*L, Op) == keyOperand(I, Op))
        ++Op;
      if (Op == NumOps)
        return Slot;
    }
  }

  bool visit(BasicBlock *BB) {
    bool Changed = false;
    size_t ScopeStart = Undo.size();
    for (auto It = BB->begin(); It != BB->end();) {
      Instruction &I = *It;
      ++It;
      if (!isCSECandidate(I))
        continue;
      size_t Slot = probe(I, extraOf(I));
      if (Instruction *Leader = Table[Slot]) {
        I.replaceAllUsesWith(Leader);
        I.eraseFromParent();
        Changed = true;
        continue;
      }
      Table[Slot] = &I;
      Undo.push_back(Slot);
    }
    for (BasicBlock *Child : DT.getChildren(BB))
      Changed |= visit(Child);
    while (Undo.size() != ScopeStart) {
      Table[Undo.back()] = nullptr;
      Undo.pop_back();
    }
    return Changed;
  }

  DominatorTree DT;
  std::vector<Instruction *> Table;
  size_t Mask = 0;
  /// Slots filled so far, innermost scope last.
  std::vector<size_t> Undo;
};

} // namespace

bool CSEPass::run(Function &F) { return DomTreeCSE(F).run(F); }
