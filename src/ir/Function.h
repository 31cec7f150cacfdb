//===- Function.h - PIR function --------------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: kernels (__global__), device functions (__device__), arguments,
/// and the attributes Proteus consumes — the "jit" annotation with the list
/// of argument positions to specialize (paper Listing 1) and launch_bounds
/// set either by the programmer AOT or injected by the JIT runtime.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_FUNCTION_H
#define PROTEUS_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <optional>

namespace pir {

class Module;

/// Formal parameter of a Function.
class Argument : public Value {
public:
  Argument(Type *Ty, std::string Name, Function *Parent, unsigned Index)
      : Value(ValueKind::Argument, Ty), Parent(Parent), Index(Index) {
    setName(std::move(Name));
  }

  Function *getParent() const { return Parent; }

  /// Zero-based position in the argument list. Note the user-facing
  /// annotation indices (paper Listing 1) are one-based.
  unsigned getIndex() const { return Index; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Argument;
  }

private:
  Function *Parent;
  unsigned Index;
};

/// CUDA/HIP __launch_bounds__ equivalent. MaxThreadsPerBlock is required;
/// MinBlocksPerProcessor defaults to 1 (as the JIT runtime sets it).
struct LaunchBounds {
  uint32_t MaxThreadsPerBlock = 0;
  uint32_t MinBlocksPerProcessor = 1;

  bool operator==(const LaunchBounds &) const = default;
};

/// The __attribute__((annotate("jit", ...))) payload: one-based indices of
/// kernel arguments to fold at runtime (empty means launch-bounds-only
/// specialization is still applied).
struct JitAnnotation {
  std::vector<uint32_t> ArgIndices;

  bool operator==(const JitAnnotation &) const = default;
};

/// Whether a function runs on the device as an entry point (kernel) or as a
/// callee (device function).
enum class FunctionKind : uint8_t { Kernel, Device };

/// A PIR function: signature, attributes and CFG.
class Function : public Value {
public:
  using iterator = IList<BasicBlock>::iterator;

  Function(Type *PtrTy, std::string Name, Type *RetTy,
           const std::vector<Type *> &ParamTypes,
           const std::vector<std::string> &ParamNames, FunctionKind FK);

  ~Function() override;

  Module *getParent() const { return Parent; }
  Type *getReturnType() const { return RetTy; }
  FunctionKind getFunctionKind() const { return FK; }
  bool isKernel() const { return FK == FunctionKind::Kernel; }

  size_t getNumArgs() const { return Args.size(); }
  Argument *getArg(size_t I) const { return Args[I].get(); }
  const std::vector<std::unique_ptr<Argument>> &args() const { return Args; }

  bool isDeclaration() const { return Blocks.empty(); }

  // -- Attributes ---------------------------------------------------------

  bool isAlwaysInline() const { return AlwaysInlineFlag; }
  void setAlwaysInline(bool V) { AlwaysInlineFlag = V; }

  const std::optional<LaunchBounds> &getLaunchBounds() const { return LB; }
  void setLaunchBounds(LaunchBounds B) { LB = B; }
  void clearLaunchBounds() { LB.reset(); }

  const std::optional<JitAnnotation> &getJitAnnotation() const {
    return Annotation;
  }
  void setJitAnnotation(JitAnnotation A) { Annotation = std::move(A); }
  bool hasJitAnnotation() const { return Annotation.has_value(); }

  // -- CFG ----------------------------------------------------------------

  BasicBlock &getEntryBlock() {
    assert(!Blocks.empty() && "function has no body");
    return *Blocks.front();
  }

  size_t size() const { return Blocks.size(); }
  iterator begin() { return Blocks.begin(); }
  iterator end() { return Blocks.end(); }

  /// Creates and appends a new block.
  BasicBlock *createBlock(std::string Name, Type *VoidTy);

  /// Unlinks and destroys \p BB. Drops the block's instructions first.
  void eraseBlock(BasicBlock *BB);

  /// Moves \p BB to immediately after \p After (layout only; no CFG change).
  void moveBlockAfter(BasicBlock *BB, BasicBlock *After);

  /// Blocks in layout order, as raw pointers (stable snapshot for passes
  /// that mutate the block list while iterating).
  std::vector<BasicBlock *> blockList();

  /// One past the largest id (Value::getValueId) handed to this function's
  /// arguments, blocks and instructions: the size of a side table indexed
  /// by id. Arguments are numbered first, then blocks and instructions as
  /// they join the function, so a function built in order is numbered
  /// densely; erasing a value leaves the bound alone.
  uint32_t valueIdBound() const { return NextValueId; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Function;
  }

private:
  friend class Module;
  friend class BasicBlock; // numbers instructions as they are linked

  /// Severs every operand edge of the body, then destroys its blocks. The
  /// one place a body's edges are dropped on teardown: blocks are only
  /// ever destroyed here or by eraseBlock, which drops them first too.
  void dropBody();

  /// Gives \p V the next id unless it already has one.
  void numberValue(Value &V) {
    if (V.ValueId == Value::NoValueId)
      V.ValueId = NextValueId++;
  }

  Module *Parent = nullptr;
  Type *RetTy;
  FunctionKind FK;
  bool AlwaysInlineFlag = false;
  std::optional<LaunchBounds> LB;
  std::optional<JitAnnotation> Annotation;
  std::vector<std::unique_ptr<Argument>> Args;
  IList<BasicBlock> Blocks;
  uint32_t NextValueId = 0;
};

/// A side table from one function's arguments, blocks and instructions to
/// T, indexed by Value::getValueId() and sized from valueIdBound() when
/// built. Indexing a value numbered after that is out of range (and aborts
/// under _GLIBCXX_ASSERTIONS); lookup() reads such a value as the initial
/// entry instead.
template <typename T> class ValueIdMap {
public:
  ValueIdMap() = default;
  explicit ValueIdMap(const Function &F, T Init = T())
      : Slots(F.valueIdBound(), Init), Init(Init) {}

  T &operator[](const Value *V) { return Slots[V->getValueId()]; }

  T lookup(const Value *V) const {
    uint32_t Id = V->getValueId();
    return Id < Slots.size() ? Slots[Id] : Init;
  }

private:
  std::vector<T> Slots;
  T Init{};
};

/// A set of one function's arguments, blocks and instructions: a bitmap
/// over their ids, with the same sizing rule as ValueIdMap. A value
/// numbered after the set was built is never a member.
class ValueIdSet {
public:
  ValueIdSet() = default;
  explicit ValueIdSet(const Function &F) : Bits(F.valueIdBound()) {}

  bool contains(const Value *V) const {
    uint32_t Id = V->getValueId();
    return Id < Bits.size() && Bits[Id];
  }

  /// Adds \p V; false if it was already a member.
  bool insert(const Value *V) {
    auto Bit = Bits[V->getValueId()];
    if (Bit)
      return false;
    Bit = true;
    return true;
  }

  void erase(const Value *V) { Bits[V->getValueId()] = false; }

private:
  std::vector<bool> Bits;
};

} // namespace pir

#endif // PROTEUS_IR_FUNCTION_H
