//===- Dominators.h - dominator tree analysis -------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper–Harvey–Kennedy iterative algorithm,
/// plus dominance frontiers (used by mem2reg's phi placement) and a
/// reverse-post-order walk helper shared by several passes.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_DOMINATORS_H
#define PROTEUS_IR_DOMINATORS_H

#include <cstdint>
#include <vector>

namespace pir {

class BasicBlock;
class Function;
class Instruction;
class Value;

/// Blocks of \p F in reverse post order from the entry. Unreachable blocks
/// are excluded.
std::vector<BasicBlock *> reversePostOrder(Function &F);

/// Immediate-dominator tree over the reachable CFG of one function.
class DominatorTree {
public:
  explicit DominatorTree(Function &F);

  /// Immediate dominator of \p BB (null for the entry block and for
  /// unreachable blocks).
  BasicBlock *getIDom(BasicBlock *BB) const;

  /// True if \p BB is reachable from the entry.
  bool isReachable(BasicBlock *BB) const {
    return rpoIndex(BB) != Unreachable;
  }

  /// True if \p A dominates \p B (reflexive).
  bool dominates(BasicBlock *A, BasicBlock *B) const;

  /// True if the *definition* \p Def is available at the *use site*
  /// (\p UseSite): Def's block strictly dominates the use block, or both are
  /// in one block with Def earlier. Phi uses are checked against the end of
  /// the corresponding incoming block by the verifier, not here.
  bool dominates(const Instruction *Def, const Instruction *UseSite) const;

  /// Dominator-tree children of \p BB.
  const std::vector<BasicBlock *> &getChildren(BasicBlock *BB) const;

  /// Dominance frontier of \p BB.
  const std::vector<BasicBlock *> &getFrontier(BasicBlock *BB) const;

  /// Iterated dominance frontier of \p Seeds, in discovery order: every
  /// block where paths through a seed and paths around it first meet. It
  /// places mem2reg's phis and gives UniformityAnalysis the joins of a
  /// divergent branch. Only reachable blocks are returned.
  std::vector<BasicBlock *>
  iteratedFrontier(const std::vector<BasicBlock *> &Seeds) const;

  /// Reverse post order used to build the tree (reachable blocks only).
  const std::vector<BasicBlock *> &getRPO() const { return RPO; }

private:
  static constexpr uint32_t Unreachable = ~0u;

  /// Position of \p BB in RPO; Unreachable for unreachable blocks and for
  /// blocks created after the tree.
  uint32_t rpoIndex(const BasicBlock *BB) const;

  void computeFrontiers();

  std::vector<BasicBlock *> RPO;
  std::vector<uint32_t> Index; // RPO position by block id
  std::vector<int> IDom;       // by RPO index, -1 = none
  std::vector<std::vector<BasicBlock *>> Children; // by RPO index
  std::vector<std::vector<BasicBlock *>> Frontier; // by RPO index
  std::vector<BasicBlock *> Empty;
};

} // namespace pir

#endif // PROTEUS_IR_DOMINATORS_H
