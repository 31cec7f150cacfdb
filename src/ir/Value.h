//===- Value.h - PIR value/use machinery ------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value, Use and User: the SSA value graph with O(1) use-list maintenance.
/// Mirrors the LLVM design: every operand edge is tracked on the used Value
/// so that replaceAllUsesWith (the workhorse of runtime constant folding)
/// is proportional to the number of uses being rewritten.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_VALUE_H
#define PROTEUS_IR_VALUE_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>

namespace pir {

// LLVM-style RTTI helpers, shared with the proteus support library.
using proteus::cast;
using proteus::dyn_cast;
using proteus::dyn_cast_if_present;
using proteus::isa;
using proteus::isa_and_present;

class User;
class Value;

/// Discriminator for the whole Value hierarchy (LLVM-style RTTI).
enum class ValueKind : uint8_t {
  // Non-instruction values.
  ConstantInt,
  ConstantFP,
  ConstantPtr,
  Argument,
  GlobalVariable,
  Function,
  BasicBlock,

  // Instructions. Everything from InstBegin to InstEnd (exclusive) is an
  // Instruction; the sub-ranges are used by the instruction classof()s.
  InstBegin,

  // Integer binary arithmetic / bitwise.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Floating-point binary arithmetic.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Binary math intrinsics.
  Pow,
  FMin,
  FMax,
  SMin,
  SMax,

  // Unary.
  FNeg,
  Sqrt,
  Exp,
  Log,
  Sin,
  Cos,
  Fabs,
  Floor,

  // Casts.
  Trunc,
  ZExt,
  SExt,
  FPExt,
  FPTrunc,
  SIToFP,
  UIToFP,
  FPToSI,
  IntToPtr,
  PtrToInt,

  // Comparisons and select.
  ICmp,
  FCmp,
  Select,

  // Memory.
  Alloca,
  Load,
  Store,
  PtrAdd,
  AtomicAdd,

  // GPU intrinsics.
  ThreadIdx,
  BlockIdx,
  BlockDim,
  GridDim,
  Barrier,

  // Calls, phis, control flow.
  Call,
  Phi,
  Br,
  CondBr,
  Ret,

  InstEnd,
};

/// Returns a stable mnemonic for \p K ("add", "fmul", ...), shared by the
/// printer, parser and diagnostics.
const char *valueKindName(ValueKind K);

/// One operand edge: records which User holds the edge and at which operand
/// index, so the edge can be rewritten in O(1).
struct Use {
  User *TheUser = nullptr;
  uint32_t OperandIndex = 0;
};

/// A value's use list. The first InlineUses edges live inside the value;
/// a longer list moves to one heap array that doubles as it grows and never
/// shrinks. Only push_back and pop_back change the length, so the order is
/// exactly the one Value::addUse and Value::removeUse (swap-with-last) make.
class UseVector {
public:
  static constexpr uint32_t InlineUses = 2;

  UseVector() = default;
  UseVector(const UseVector &) = delete;
  UseVector &operator=(const UseVector &) = delete;
  ~UseVector() {
    if (Data != Inline)
      ::operator delete(Data);
  }

  uint32_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  std::span<const Use> span() const { return {Data, Size}; }

  Use &operator[](uint32_t I) {
    assert(I < Size && "use index out of range");
    return Data[I];
  }
  const Use &back() const {
    assert(Size && "empty use list");
    return Data[Size - 1];
  }

  void push_back(Use U) {
    if (Size == Capacity)
      grow();
    Data[Size++] = U;
  }
  void pop_back() {
    assert(Size && "empty use list");
    --Size;
  }

private:
  void grow();

  Use *Data = Inline;
  uint32_t Size = 0;
  uint32_t Capacity = InlineUses;
  Use Inline[InlineUses];
};

/// Base of the SSA value hierarchy.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value();

  ValueKind getKind() const { return TheKind; }
  Type *getType() const { return Ty; }

  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  bool hasName() const { return !Name.empty(); }

  /// All operand edges that reference this value.
  std::span<const Use> uses() const { return UseList.span(); }
  bool hasUses() const { return !UseList.empty(); }
  size_t getNumUses() const { return UseList.size(); }

  /// Rewrites every use of this value to refer to \p NewValue instead. This
  /// is the primitive behind runtime constant folding: the JIT runtime calls
  /// it to fold a kernel Argument into its runtime-constant value.
  void replaceAllUsesWith(Value *NewValue);

  bool isInstruction() const {
    return TheKind > ValueKind::InstBegin && TheKind < ValueKind::InstEnd;
  }

  /// Dense index of an argument, block or instruction within its function,
  /// below Function::valueIdBound(); side tables index by it instead of
  /// hashing the pointer. NoValueId for every other value and for an
  /// instruction not yet linked into a block. Moving an instruction within
  /// its function keeps the id; ids are never reused.
  uint32_t getValueId() const { return ValueId; }
  static constexpr uint32_t NoValueId = ~0u;

protected:
  Value(ValueKind K, Type *T) : TheKind(K), Ty(T) {
    assert(T && "value requires a type");
  }

private:
  friend class User;
  friend class Function; // assigns ValueId

  /// Registers a new use edge; returns its slot in the use list.
  uint32_t addUse(User *U, uint32_t OperandIndex);

  /// Removes the use edge in \p Slot (swap-with-last, fixing back-pointers).
  void removeUse(uint32_t Slot);

  ValueKind TheKind;
  uint32_t ValueId = NoValueId; // in the padding after TheKind
  Type *Ty;
  std::string Name;
  UseVector UseList;
};

static_assert(sizeof(Value) == 3 * sizeof(void *) + sizeof(std::string) +
                                   sizeof(UseVector),
              "the value id must live in the padding after the kind");

/// A Value that references other Values through operands. Up to
/// InlineOperands operands (every opcode but phi and call) live inside the
/// object; more move to one heap block holding both arrays.
class User : public Value {
public:
  size_t getNumOperands() const { return NumOperands; }

  Value *getOperand(size_t I) const {
    assert(I < NumOperands && "operand index out of range");
    return Ops[I];
  }

  /// Replaces operand \p I, updating both values' use lists.
  void setOperand(size_t I, Value *V);

  std::span<Value *const> operands() const { return {Ops, NumOperands}; }

  /// Drops all operand edges (used when bulk-deleting IR that may contain
  /// reference cycles, e.g. loops of blocks).
  void dropAllReferences();

  static bool classof(const Value *V) { return V->isInstruction(); }

protected:
  User(ValueKind K, Type *T) : Value(K, T) {}
  ~User() override;

  /// Appends an operand, registering the use edge.
  void addOperand(Value *V);

  /// Removes the last operand.
  void removeLastOperand();

  /// Makes room for \p N operands without further reallocation.
  void reserveOperands(size_t N);

private:
  friend class Value;

  static constexpr uint32_t InlineOperands = 3;

  /// Operand values and, for each, the slot of its Use record inside the
  /// operand value's use list; both point into the inline arrays below or
  /// into one heap block once the operands outgrow them.
  Value **Ops = InlineOps;
  uint32_t *UseSlots = InlineUseSlots;
  uint32_t NumOperands = 0;
  uint32_t Capacity = InlineOperands;
  Value *InlineOps[InlineOperands] = {};
  uint32_t InlineUseSlots[InlineOperands] = {};
};

} // namespace pir

#endif // PROTEUS_IR_VALUE_H
