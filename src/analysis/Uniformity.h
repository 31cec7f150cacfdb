//===- Uniformity.h - GPU thread-dependence analysis ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// UniformityAnalysis classifies every PIR value as uniform (all threads of
/// a block compute the same value), injective (a thread-dependent value
/// known to be distinct for distinct threads — the fact that makes
/// `out[tid] = ...` race-free), or divergent (thread-dependent with no
/// injectivity guarantee). Taint propagates forward from ThreadIdx through
/// arithmetic, loads and control-dependent phis; control dependence is
/// recovered via the iterated dominance frontier of divergent branches
/// (reusing Dominators), which also yields the divergent-region set the
/// barrier-divergence check consumes.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_ANALYSIS_UNIFORMITY_H
#define PROTEUS_ANALYSIS_UNIFORMITY_H

#include "analysis/Dataflow.h"

#include <unordered_map>

namespace pir {
namespace analysis {

/// Thread-dependence lattice, ordered Unknown < Uniform < Injective <
/// Divergent; join is max. "Injective" is deliberately between the two:
/// it is thread-dependent (so branches on it diverge) but per-thread
/// distinct (so stores indexed by it do not race).
enum class Uniformity : uint8_t {
  Unknown = 0, ///< bottom: not yet computed (unreached code stays here)
  Uniform,     ///< identical across all threads of a block
  Injective,   ///< thread-dependent, but distinct per thread (e.g. tid, tid+c)
  Divergent,   ///< thread-dependent, no injectivity guarantee
};

/// Forward dataflow instance computing per-value Uniformity plus the sync
/// dependence induced by divergent branches.
class UniformityAnalysis final
    : public dataflow::ForwardValueDataflow<Uniformity> {
public:
  /// Runs the analysis to a fixpoint over \p F (must have a body). The
  /// DominatorTree is built internally and retained for queries.
  explicit UniformityAnalysis(Function &F);

  // -- Per-value queries ---------------------------------------------------

  Uniformity uniformity(const Value *V) const { return getFact(V); }
  bool isUniform(const Value *V) const {
    Uniformity U = getFact(V);
    return U == Uniformity::Uniform || U == Uniformity::Unknown;
  }
  bool isThreadDependent(const Value *V) const { return !isUniform(V); }
  bool isInjective(const Value *V) const {
    return getFact(V) == Uniformity::Injective;
  }

  // -- Sync dependence -----------------------------------------------------

  /// Conditional branches whose condition is thread-dependent.
  const std::vector<BranchInst *> &divergentBranches() const {
    return DivergentBranches;
  }

  /// True if \p BB is a control-flow join of some divergent branch (its
  /// phis merge values from divergently-executed paths). Barriers *at* a
  /// join are safe — all threads reconverge there.
  bool isDivergentJoin(BasicBlock *BB) const {
    return DivergentJoins.contains(BB);
  }

  /// True if \p BB executes under thread-dependent control flow: it lies
  /// between a divergent branch and its reconvergence joins, so not all
  /// threads of the block are guaranteed to reach it together.
  bool isInDivergentRegion(BasicBlock *BB) const {
    return controllingBranch(BB) != nullptr;
  }

  /// The divergent branch that placed \p BB in a divergent region (the
  /// first recorded one, for diagnostics), or null.
  BranchInst *controllingBranch(BasicBlock *BB) const {
    return RegionBranch.lookup(BB);
  }

protected:
  Uniformity bottom() const override { return Uniformity::Unknown; }
  Uniformity join(const Uniformity &A, const Uniformity &B) const override {
    return A > B ? A : B;
  }
  Uniformity initialFact(const Value &V) const override;
  Uniformity transfer(const Instruction &I) override;
  void blockProcessed(BasicBlock &BB,
                      const std::function<void(BasicBlock *)> &Enqueue)
      override;

private:
  /// Marks the region controlled by newly-divergent branch \p Br: blocks
  /// reachable from its successors without passing through a reconvergence
  /// join. Returns the join blocks (IDF of the successors).
  std::vector<BasicBlock *> markDivergentRegion(BranchInst *Br);

  /// Does calling \p F observe thread identity or thread-interleaved
  /// memory? (Transitive; conservative for recursion.)
  bool calleeIsThreadDependent(const Function *Callee);

  DominatorTree DT;
  std::vector<BranchInst *> DivergentBranches;
  ValueIdSet DivergentBranchSet;
  ValueIdSet DivergentJoins;
  ValueIdMap<BranchInst *> RegionBranch; // null outside divergent regions
  std::unordered_map<const Function *, bool> CalleeCache;
};

} // namespace analysis
} // namespace pir

#endif // PROTEUS_ANALYSIS_UNIFORMITY_H
