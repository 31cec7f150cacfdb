//===- Cloning.h - IR cloning utilities -------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep-cloning of functions and modules. The JIT runtime clones the
/// extracted kernel module before specializing it, so the pristine bitcode
/// remains available for other specializations of the same kernel; the
/// inliner and loop unroller clone bodies/blocks through the same machinery.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_IR_CLONING_H
#define PROTEUS_IR_CLONING_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pir {

class BasicBlock;
class Context;
class Function;
class GlobalVariable;
class Module;
class Value;

/// Mapping from original values to their clones, extended as cloning runs:
/// an open-addressing table of pointer pairs (linear probing, power-of-two
/// capacity, at most half full), sized once from the number of values the
/// clone will create. It hands out values, never references: slots move
/// when the table grows, so a reference into it could dangle.
class ValueMap {
public:
  /// A table that holds \p ExpectedKeys keys without growing.
  explicit ValueMap(size_t ExpectedKeys = 0) { rehash(ExpectedKeys); }

  /// The value \p Key maps to, or null.
  Value *lookup(const Value *Key) const {
    for (size_t I = home(Key);; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (S.Key == Key)
        return S.Val;
      if (!S.Key)
        return nullptr;
    }
  }

  /// Maps \p Key to \p Val, replacing any earlier mapping.
  void insert(const Value *Key, Value *Val) {
    if (2 * (Count + 1) > Slots.size())
      rehash(Count + 1);
    for (size_t I = home(Key);; I = (I + 1) & mask()) {
      Slot &S = Slots[I];
      if (!S.Key) {
        S.Key = Key;
        ++Count;
      }
      if (S.Key == Key) {
        S.Val = Val;
        return;
      }
    }
  }

  size_t size() const { return Count; }

  /// Drops every mapping, keeping the capacity.
  void clear() {
    Slots.assign(Slots.size(), Slot{});
    Count = 0;
  }

private:
  struct Slot {
    const Value *Key = nullptr;
    Value *Val = nullptr;
  };

  size_t mask() const { return Slots.size() - 1; }

  /// Fibonacci hashing of the pointer: the top bits of the product.
  size_t home(const Value *Key) const {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(Key) * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  /// Grows to the smallest power of two holding \p Keys at most half full.
  void rehash(size_t Keys) {
    size_t Cap = std::bit_ceil(std::max<size_t>(16, 2 * Keys));
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Cap, Slot{});
    Shift = 64 - std::countr_zero(Cap);
    Count = 0;
    for (const Slot &S : Old)
      if (S.Key)
        insert(S.Key, S.Val);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
  unsigned Shift = 64;
};

/// Clones a single instruction. Operands are remapped through \p VM;
/// constants map to themselves in a same-context clone (constants are
/// uniqued per context) and are otherwise translated into \p Ctx and
/// memoized in \p VM; other unmapped operands are used as-is, which is
/// correct only for values the caller guarantees are shared (same-context
/// cloning, e.g. inlining).
/// Phi forward references get destination-context placeholders instead of
/// the original values so the source IR's use lists are never mutated —
/// cloning from a shared read-only prototype module is therefore safe to
/// run concurrently from multiple threads.
class Instruction;
std::unique_ptr<Instruction> cloneInstruction(Instruction &I, ValueMap &VM,
                                              Context &Ctx);

/// The second pass over a phi cloned by cloneInstruction, once every
/// instruction of the region is cloned: sets each incoming value of
/// \p Clone to the mapping of \p Orig's, with the same rules as operands.
class PhiInst;
void remapPhiIncoming(PhiInst &Clone, PhiInst &Orig, ValueMap &VM,
                      Context &Ctx);

/// Clones \p Src into \p DestModule under \p NewName. Global variables and
/// callee functions referenced by \p Src must already exist in \p DestModule
/// under identical names (createFunctionDeclarations/linkage handled by the
/// caller); they are remapped by name.
Function *cloneFunctionInto(Module &DestModule, Function &Src,
                            const std::string &NewName);

/// What a kernel's module needs: the functions its calls reach, in
/// post-order (callees before callers, so bodies clone into resolved
/// declarations), and the globals they reference, in source order.
struct KernelClosure {
  std::vector<Function *> Functions;
  std::vector<GlobalVariable *> Globals;
};

/// The closure of \p Kernel within its module.
KernelClosure computeKernelClosure(Function &Kernel);

/// Clones the globals and functions of \p C into a new module \p Name in
/// \p Ctx, which may be a different context than the source's.
std::unique_ptr<Module> cloneClosure(const KernelClosure &C, Context &Ctx,
                                     const std::string &Name);

/// Deep-clones an entire module (globals first, then functions, remapping
/// cross-references). \p Ctx may be a different context than the source's:
/// types and constants are translated into it.
std::unique_ptr<Module> cloneModule(Module &Src, Context &Ctx,
                                    const std::string &NewName);

} // namespace pir

#endif // PROTEUS_IR_CLONING_H
