//===- Dataflow.h - forward dataflow framework over PIR ---------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable forward-dataflow / abstract-interpretation framework over PIR.
/// Facts are lattice elements keyed by `Value*`; the solver runs a worklist
/// of `BasicBlock`s seeded in reverse post order and re-enqueues the blocks
/// of a value's users whenever its fact climbs the lattice, so loop-carried
/// phis converge from bottom in the usual Kildall fashion.
///
/// Analyses derive from ForwardValueDataflow<FactT> and provide the lattice
/// (bottom/join) plus the transfer function; the framework guarantees
/// monotone updates (new fact := join(old, transfer)) and therefore
/// termination for any finite-height lattice. Phi joins fall out naturally:
/// a phi's transfer reads getFact() of every incoming value, and incoming
/// facts arriving later re-trigger the phi's block.
///
/// UniformityAnalysis (GPU thread-dependence), the divergent-barrier check
/// and the shared-memory lint are built on this; the auto-tuner and future
/// transforms (e.g. uniformity-aware LICM) can layer further analyses on
/// the same solver.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_ANALYSIS_DATAFLOW_H
#define PROTEUS_ANALYSIS_DATAFLOW_H

#include "ir/Dominators.h"
#include "ir/Function.h"

#include <functional>
#include <vector>

namespace pir {
namespace dataflow {

/// Forward dataflow solver with a fact per instruction, indexed by its id.
///
/// FactT is a lattice element; derived analyses implement:
///   * bottom()       — the least element (initial fact of instructions)
///   * join(A, B)     — least upper bound
///   * initialFact(V) — fact of non-instruction values (constants,
///                      arguments, globals, blocks)
///   * transfer(I)    — fact of instruction I from its operands' facts
///                      (via getFact)
/// and may override blockProcessed() to inject non-operand dataflow edges
/// (e.g. control dependence) by enqueueing further blocks.
template <typename FactT> class ForwardValueDataflow {
public:
  virtual ~ForwardValueDataflow() = default;

  /// Current fact for \p V: the solved fact for instructions, the boundary
  /// fact for everything else.
  FactT getFact(const Value *V) const {
    return V->isInstruction() ? Facts.lookup(V) : initialFact(*V);
  }

protected:
  virtual FactT bottom() const = 0;
  virtual FactT join(const FactT &A, const FactT &B) const = 0;
  virtual FactT initialFact(const Value &V) const = 0;
  virtual FactT transfer(const Instruction &I) = 0;

  /// Called after every (re)evaluation of a block; \p Enqueue schedules a
  /// block for (re)processing. Default: no extra edges.
  virtual void blockProcessed(BasicBlock &BB,
                              const std::function<void(BasicBlock *)> &) {
    (void)BB;
  }

  /// Runs the worklist to a fixpoint over the reachable blocks of \p F.
  void solve(Function &F) {
    Facts = ValueIdMap<FactT>(F, bottom());
    std::vector<BasicBlock *> RPO = reversePostOrder(F);
    std::vector<BasicBlock *> Worklist(RPO.rbegin(), RPO.rend());
    ValueIdSet Reachable(F);
    for (BasicBlock *BB : RPO)
      Reachable.insert(BB);
    ValueIdSet InList = Reachable;
    auto Enqueue = [&](BasicBlock *BB) {
      if (Reachable.contains(BB) && InList.insert(BB))
        Worklist.push_back(BB);
    };
    while (!Worklist.empty()) {
      BasicBlock *BB = Worklist.back();
      Worklist.pop_back();
      InList.erase(BB);
      for (Instruction &I : *BB) {
        FactT Old = getFact(&I);
        FactT New = join(Old, transfer(I));
        if (New == Old)
          continue;
        Facts[&I] = New;
        // The fact climbed: everything consuming it must be re-evaluated.
        for (const Use &U : I.uses())
          if (auto *UserInst = dyn_cast<Instruction>(
                  static_cast<Value *>(U.TheUser)))
            if (UserInst->getParent())
              Enqueue(UserInst->getParent());
      }
      blockProcessed(*BB, Enqueue);
    }
  }

  /// Instructions not yet reached read as bottom().
  ValueIdMap<FactT> Facts;
};

} // namespace dataflow
} // namespace pir

#endif // PROTEUS_ANALYSIS_DATAFLOW_H
