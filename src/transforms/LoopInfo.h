//===- LoopInfo.h - natural loop analysis -----------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection over the dominator tree, plus the canonical-form
/// queries the unroller and LICM need (preheader, single latch, dedicated
/// exit) and constant trip-count discovery by simulating the evolution of
/// constant-evolving header phis — which is exactly what runtime constant
/// folding of a kernel argument turns a symbolic bound into.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TRANSFORMS_LOOPINFO_H
#define PROTEUS_TRANSFORMS_LOOPINFO_H

#include "ir/Dominators.h"
#include "ir/Function.h"

#include <memory>
#include <optional>
#include <vector>

namespace proteus {

/// One natural loop: header plus body blocks; Parent links form the loop
/// forest.
struct Loop {
  pir::BasicBlock *Header = nullptr;
  std::vector<pir::BasicBlock *> Blocks; // layout order
  pir::ValueIdSet Members;               // the same blocks, by id
  std::vector<Loop *> SubLoops;
  Loop *Parent = nullptr;

  /// False for blocks created after the loop was found.
  bool contains(pir::BasicBlock *BB) const { return Members.contains(BB); }

  /// Depth in the loop forest (outermost = 1).
  unsigned depth() const {
    unsigned D = 1;
    for (Loop *P = Parent; P; P = P->Parent)
      ++D;
    return D;
  }

  /// The unique in-loop predecessor of the header through a back edge, or
  /// null if there is more than one latch.
  pir::BasicBlock *getSingleLatch() const;

  /// The unique out-of-loop predecessor of the header, if it branches only
  /// to the header (a canonical preheader); null otherwise.
  pir::BasicBlock *getPreheader() const;

  /// The unique successor of the header outside the loop when the header
  /// terminator is a conditional branch with exactly one exiting side, and
  /// that exit block has the header as its only predecessor; null otherwise.
  pir::BasicBlock *getDedicatedExit() const;
};

/// The loop forest of one function.
class LoopInfo {
public:
  LoopInfo(pir::Function &F, const pir::DominatorTree &DT);

  const std::vector<std::unique_ptr<Loop>> &loops() const { return AllLoops; }

  /// Innermost loop containing \p BB, or null.
  Loop *getLoopFor(pir::BasicBlock *BB) const {
    return InnermostMap.lookup(BB);
  }

  /// All loops, innermost first (safe order for unrolling/LICM).
  std::vector<Loop *> loopsInnermostFirst() const;

private:
  std::vector<std::unique_ptr<Loop>> AllLoops;
  pir::ValueIdMap<Loop *> InnermostMap;
};

/// Computed constant trip count of a canonical loop (see
/// computeConstantTripCount).
struct TripCount {
  uint64_t Count = 0;
};

/// Tries to determine how many times \p L's body executes by simulating the
/// loop's constant-evolving phis: header phis whose preheader incoming is a
/// constant and whose latch incoming is computable from constants and other
/// evolving phis through pure in-loop instructions. Requires canonical form
/// (preheader, single latch, header-exit via conditional branch). Returns
/// nullopt if the count is unknown or exceeds \p MaxTrip.
std::optional<TripCount> computeConstantTripCount(Loop &L, uint64_t MaxTrip);

} // namespace proteus

#endif // PROTEUS_TRANSFORMS_LOOPINFO_H
