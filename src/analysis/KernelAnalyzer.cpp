//===- KernelAnalyzer.cpp - GPU-specific kernel lints ---------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelAnalyzer.h"

#include "analysis/Uniformity.h"
#include "ir/BasicBlock.h"
#include "ir/Module.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace pir {
namespace analysis {

const char *lintKindName(LintKind K) {
  switch (K) {
  case LintKind::DivergentBarrier:
    return "divergent-barrier";
  case LintKind::SharedMemRace:
    return "shared-mem-race";
  case LintKind::SharedMemOOB:
    return "shared-mem-oob";
  case LintKind::UninitializedLoad:
    return "uninitialized-load";
  }
  return "?";
}

std::string LintDiagnostic::render() const {
  return "[" + std::string(lintKindName(Kind)) + "] @" + FunctionName + "(" +
         BlockName + "): " + Message;
}

size_t AnalysisReport::count(LintKind K) const {
  size_t N = 0;
  for (const LintDiagnostic &D : Diags)
    if (D.Kind == K)
      ++N;
  return N;
}

std::string AnalysisReport::message() const {
  std::string Out;
  for (const LintDiagnostic &D : Diags) {
    if (!Out.empty())
      Out += '\n';
    Out += D.render();
  }
  return Out;
}

namespace {

std::string blockName(const BasicBlock *BB) {
  return BB->hasName() ? BB->getName() : std::string("<anon>");
}

std::string describe(const Value *V) {
  if (V->hasName())
    return "%" + V->getName();
  if (const auto *C = dyn_cast<ConstantInt>(V))
    return std::to_string(C->getSExtValue());
  return std::string("<") + valueKindName(V->getKind()) + ">";
}

/// Chases a chain of PtrAdds to its base. Returns the AllocaInst if the
/// base is one, accumulating the byte offset of constant indices;
/// \p AllConst is cleared when any index along the chain is non-constant.
AllocaInst *resolveBuffer(Value *Ptr, int64_t &ByteOffset, bool &AllConst) {
  ByteOffset = 0;
  AllConst = true;
  while (auto *PA = dyn_cast<PtrAddInst>(Ptr)) {
    if (auto *C = dyn_cast<ConstantInt>(PA->getIndex()))
      ByteOffset += C->getSExtValue() * static_cast<int64_t>(PA->getElemSize());
    else
      AllConst = false;
    Ptr = PA->getBase();
  }
  return dyn_cast<AllocaInst>(Ptr);
}

/// True when the buffer's address leaks beyond direct load/store/atomic
/// access (stored as a value, passed to a call, ptrtoint, merged through
/// select/phi, returned) — then stores through unknown aliases are
/// possible and the lint stays silent about the buffer.
bool bufferEscapes(AllocaInst *A) {
  std::vector<Value *> Work{A};
  std::unordered_set<Value *> Seen{A};
  while (!Work.empty()) {
    Value *V = Work.back();
    Work.pop_back();
    for (const Use &U : V->uses()) {
      auto *UI = dyn_cast<Instruction>(U.TheUser);
      if (!UI)
        return true;
      switch (UI->getKind()) {
      case ValueKind::Load:
        break;
      case ValueKind::Store:
        if (U.OperandIndex == 0)
          return true; // the pointer itself is stored
        break;
      case ValueKind::AtomicAdd:
        if (U.OperandIndex != 0)
          return true;
        break;
      case ValueKind::PtrAdd:
        if (U.OperandIndex == 0 && Seen.insert(UI).second)
          Work.push_back(UI);
        break;
      case ValueKind::ICmp:
        break; // address comparison does not leak the buffer
      default:
        return true;
      }
    }
  }
  return false;
}

/// One resolved access to a non-escaping alloca buffer.
struct BufferAccess {
  AllocaInst *Buffer = nullptr;
  bool IsPlainStore = false;
  bool IsAtomic = false;
  int64_t ByteOffset = 0;
  bool AllConstIndices = false;
  Uniformity PtrFact = Uniformity::Unknown;
  Type *AccessTy = nullptr;
};

class SharedMemLint {
public:
  SharedMemLint(Function &F, const UniformityAnalysis &UA, AnalysisReport &R)
      : F(F), UA(UA), R(R), Accesses(F), Escaped(F) {}

  void run() {
    collectAccesses();
    checkOutOfBounds();
    checkRaces();
    checkUninitializedLoads();
  }

private:
  void diag(LintKind K, const BasicBlock *BB, std::string Msg) {
    R.Diags.push_back(
        {K, F.getName(), blockName(BB), std::move(Msg)});
  }

  void collectAccesses() {
    for (BasicBlock &BB : F) {
      for (Instruction &I : BB) {
        Value *Ptr = nullptr;
        BufferAccess A;
        switch (I.getKind()) {
        case ValueKind::Load:
          Ptr = cast<LoadInst>(&I)->getPointer();
          A.AccessTy = I.getType();
          break;
        case ValueKind::Store:
          Ptr = cast<StoreInst>(&I)->getPointer();
          A.IsPlainStore = true;
          A.AccessTy = cast<StoreInst>(&I)->getValue()->getType();
          break;
        case ValueKind::AtomicAdd:
          Ptr = cast<AtomicAddInst>(&I)->getPointer();
          A.IsAtomic = true;
          A.AccessTy = cast<AtomicAddInst>(&I)->getValue()->getType();
          break;
        default:
          continue;
        }
        A.Buffer = resolveBuffer(Ptr, A.ByteOffset, A.AllConstIndices);
        if (!A.Buffer)
          continue;
        std::optional<bool> &Escapes = Escaped[A.Buffer];
        if (!Escapes)
          Escapes = bufferEscapes(A.Buffer);
        if (*Escapes)
          continue;
        A.PtrFact = UA.uniformity(Ptr);
        Accesses[&I] = A;
      }
    }
  }

  void checkOutOfBounds() {
    for (BasicBlock &BB : F) {
      for (Instruction &I : BB) {
        const BufferAccess &A = Accesses[&I];
        if (!A.Buffer || !A.AllConstIndices)
          continue;
        int64_t End = A.ByteOffset +
                      static_cast<int64_t>(A.AccessTy->sizeInBytes());
        int64_t Size =
            static_cast<int64_t>(A.Buffer->allocationSizeBytes());
        if (A.ByteOffset >= 0 && End <= Size)
          continue;
        diag(LintKind::SharedMemOOB, &BB,
             std::string(valueKindName(I.getKind())) + " at constant byte "
                 "offset " + std::to_string(A.ByteOffset) + " (width " +
                 std::to_string(A.AccessTy->sizeInBytes()) +
                 ") overruns buffer " + describe(A.Buffer) + " of " +
                 std::to_string(Size) + " bytes");
      }
    }
  }

  /// Between consecutive barriers in one block, a plain store whose address
  /// is thread-dependent but not injective (distinct threads may hit the
  /// same slot) races with any other non-atomic access to the same buffer.
  void checkRaces() {
    struct IntervalState {
      Instruction *DivergentStore = nullptr;
      Instruction *OtherAccess = nullptr;
      bool Reported = false;
    };
    for (BasicBlock &BB : F) {
      std::unordered_map<AllocaInst *, IntervalState> State;
      for (Instruction &I : BB) {
        if (isa<BarrierInst>(&I)) {
          State.clear(); // the barrier orders every prior access
          continue;
        }
        const BufferAccess &A = Accesses[&I];
        if (!A.Buffer || A.IsAtomic)
          continue;
        IntervalState &S = State[A.Buffer];
        bool IsDivStore =
            A.IsPlainStore && A.PtrFact == Uniformity::Divergent;
        bool Conflicts =
            S.DivergentStore || (IsDivStore && S.OtherAccess);
        if (Conflicts && !S.Reported) {
          S.Reported = true;
          Instruction *Store = S.DivergentStore ? S.DivergentStore : &I;
          diag(LintKind::SharedMemRace, &BB,
               "store to buffer " + describe(A.Buffer) +
                   " indexed by a thread-dependent, non-injective value (" +
                   describe(cast<StoreInst>(Store)->getPointer()) +
                   ") races with another access to the same buffer between "
                   "barriers");
        }
        if (IsDivStore)
          S.DivergentStore = &I;
        else
          S.OtherAccess = &I;
      }
    }
  }

  /// Flags loads from a buffer that no store may precede on any path
  /// (may-stored union dataflow over the CFG: zero false positives, may
  /// miss path-sensitive bugs).
  void checkUninitializedLoads() {
    std::vector<BasicBlock *> RPO = reversePostOrder(F);
    ValueIdMap<std::unordered_set<AllocaInst *>> Out(F);
    auto InSet = [&](BasicBlock *BB) {
      std::unordered_set<AllocaInst *> In;
      for (BasicBlock *P : BB->predecessors())
        In.insert(Out[P].begin(), Out[P].end());
      return In;
    };
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *BB : RPO) {
        std::unordered_set<AllocaInst *> Cur = InSet(BB);
        for (Instruction &I : *BB) {
          const BufferAccess &A = Accesses[&I];
          if (A.IsPlainStore || A.IsAtomic)
            Cur.insert(A.Buffer);
        }
        if (Cur != Out[BB]) {
          Out[BB] = std::move(Cur);
          Changed = true;
        }
      }
    }
    for (BasicBlock *BB : RPO) {
      std::unordered_set<AllocaInst *> Stored = InSet(BB);
      for (Instruction &I : *BB) {
        const BufferAccess &A = Accesses[&I];
        if (!A.Buffer)
          continue;
        if (A.IsPlainStore || A.IsAtomic) {
          Stored.insert(A.Buffer);
          continue;
        }
        if (!Stored.count(A.Buffer))
          diag(LintKind::UninitializedLoad, BB,
               "load " + describe(&I) + " reads buffer " +
                   describe(A.Buffer) +
                   " before any store to it on every path");
      }
    }
  }

  Function &F;
  const UniformityAnalysis &UA;
  AnalysisReport &R;
  ValueIdMap<BufferAccess> Accesses; // Buffer is null for other insts
  ValueIdMap<std::optional<bool>> Escaped;
};

void checkBarrierDivergence(Function &F, const UniformityAnalysis &UA,
                            AnalysisReport &R) {
  for (BasicBlock &BB : F) {
    if (!UA.isInDivergentRegion(&BB))
      continue;
    for (Instruction &I : BB) {
      if (!isa<BarrierInst>(&I))
        continue;
      BranchInst *Br = UA.controllingBranch(&BB);
      std::string Why =
          Br ? " (branch in '" + blockName(Br->getParent()) +
                   "' on thread-dependent condition " +
                   describe(Br->getCondition()) + ")"
             : "";
      R.Diags.push_back(
          {LintKind::DivergentBarrier, F.getName(), blockName(&BB),
           "barrier executes under thread-dependent control flow" + Why +
               ": threads that skip this path never reach it and the "
               "block deadlocks"});
    }
  }
}

} // namespace

AnalysisReport analyzeKernel(Function &F) {
  AnalysisReport R;
  if (F.isDeclaration())
    return R;
  // Every lint is rooted in a barrier or an alloca-backed buffer; a kernel
  // with neither cannot produce a finding, and most kernels have neither.
  // One linear scan here keeps the launch-path cost of PROTEUS_ANALYZE=warn
  // negligible for them — the dominator tree and the dataflow fixpoint are
  // only built when something could actually be diagnosed.
  bool HasBarrier = false, HasAlloca = false;
  for (BasicBlock &BB : F) {
    for (Instruction &I : BB) {
      HasBarrier |= isa<BarrierInst>(&I);
      HasAlloca |= isa<AllocaInst>(&I);
    }
  }
  if (!HasBarrier && !HasAlloca)
    return R;
  UniformityAnalysis UA(F);
  if (HasBarrier)
    checkBarrierDivergence(F, UA, R);
  if (HasAlloca)
    SharedMemLint(F, UA, R).run();
  return R;
}

AnalysisReport analyzeModule(Module &M) {
  AnalysisReport R;
  for (Function *K : M.kernels()) {
    if (K->isDeclaration())
      continue;
    AnalysisReport FR = analyzeKernel(*K);
    R.Diags.insert(R.Diags.end(), FR.Diags.begin(), FR.Diags.end());
  }
  return R;
}

} // namespace analysis
} // namespace pir
