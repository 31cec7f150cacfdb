//===- BasicBlock.h - PIR basic block ---------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock: an ordered list of instructions ending in a terminator.
/// Blocks are Values (branch and phi operands), so CFG edits use the same
/// use-list machinery as dataflow edits.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_BASICBLOCK_H
#define PROTEUS_IR_BASICBLOCK_H

#include "ir/Instructions.h"

#include <memory>
#include <vector>

namespace pir {

class Function;

/// A straight-line sequence of instructions with a single terminator.
class BasicBlock : public Value, public IListNode<BasicBlock> {
public:
  using iterator = IList<Instruction>::iterator;

  explicit BasicBlock(Type *VoidTy, std::string Name = "")
      : Value(ValueKind::BasicBlock, VoidTy) {
    setName(std::move(Name));
  }

  Function *getParent() const { return Parent; }

  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }

  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }

  Instruction &front() { return *Insts.front(); }
  Instruction &back() { return *Insts.back(); }

  /// The block terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() {
    Instruction *Last = Insts.back();
    return Last && Last->isTerminator() ? Last : nullptr;
  }
  const Instruction *getTerminator() const {
    return const_cast<BasicBlock *>(this)->getTerminator();
  }

  /// Appends \p I (takes ownership).
  Instruction *append(std::unique_ptr<Instruction> I);

  /// Inserts \p I before \p Pos (takes ownership).
  Instruction *insertBefore(Instruction *Pos, std::unique_ptr<Instruction> I);

  /// Unlinks \p I without destroying it.
  std::unique_ptr<Instruction> remove(Instruction *I);

  /// Unlinks and destroys \p I (uses must already be gone).
  void erase(Instruction *I);

  /// Successor blocks, in terminator order (empty for ret).
  std::vector<BasicBlock *> successors() const;

  /// Predecessor blocks, deduplicated, in deterministic discovery order.
  std::vector<BasicBlock *> predecessors() const;

  /// Phi nodes at the head of the block.
  std::vector<PhiInst *> phis();

  /// Moves all instructions of \p Donor to the end of this block (used
  /// when merging straight-line blocks).
  void spliceAllFrom(BasicBlock *Donor);

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::BasicBlock;
  }

private:
  friend class Function;
  friend class Instruction;

  Function *Parent = nullptr;
  IList<Instruction> Insts;
};

} // namespace pir

#endif // PROTEUS_IR_BASICBLOCK_H
