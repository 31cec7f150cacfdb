//===- Value.cpp - PIR value/use machinery ---------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include "support/Error.h"

#include <algorithm>
#include <new>

using namespace pir;

const char *pir::valueKindName(ValueKind K) {
  switch (K) {
  case ValueKind::ConstantInt:
    return "constant-int";
  case ValueKind::ConstantFP:
    return "constant-fp";
  case ValueKind::ConstantPtr:
    return "constant-ptr";
  case ValueKind::Argument:
    return "argument";
  case ValueKind::GlobalVariable:
    return "global";
  case ValueKind::Function:
    return "function";
  case ValueKind::BasicBlock:
    return "block";
  case ValueKind::InstBegin:
  case ValueKind::InstEnd:
    return "<sentinel>";
  case ValueKind::Add:
    return "add";
  case ValueKind::Sub:
    return "sub";
  case ValueKind::Mul:
    return "mul";
  case ValueKind::SDiv:
    return "sdiv";
  case ValueKind::UDiv:
    return "udiv";
  case ValueKind::SRem:
    return "srem";
  case ValueKind::URem:
    return "urem";
  case ValueKind::And:
    return "and";
  case ValueKind::Or:
    return "or";
  case ValueKind::Xor:
    return "xor";
  case ValueKind::Shl:
    return "shl";
  case ValueKind::LShr:
    return "lshr";
  case ValueKind::AShr:
    return "ashr";
  case ValueKind::FAdd:
    return "fadd";
  case ValueKind::FSub:
    return "fsub";
  case ValueKind::FMul:
    return "fmul";
  case ValueKind::FDiv:
    return "fdiv";
  case ValueKind::Pow:
    return "pow";
  case ValueKind::FMin:
    return "fmin";
  case ValueKind::FMax:
    return "fmax";
  case ValueKind::SMin:
    return "smin";
  case ValueKind::SMax:
    return "smax";
  case ValueKind::FNeg:
    return "fneg";
  case ValueKind::Sqrt:
    return "sqrt";
  case ValueKind::Exp:
    return "exp";
  case ValueKind::Log:
    return "log";
  case ValueKind::Sin:
    return "sin";
  case ValueKind::Cos:
    return "cos";
  case ValueKind::Fabs:
    return "fabs";
  case ValueKind::Floor:
    return "floor";
  case ValueKind::Trunc:
    return "trunc";
  case ValueKind::ZExt:
    return "zext";
  case ValueKind::SExt:
    return "sext";
  case ValueKind::FPExt:
    return "fpext";
  case ValueKind::FPTrunc:
    return "fptrunc";
  case ValueKind::SIToFP:
    return "sitofp";
  case ValueKind::UIToFP:
    return "uitofp";
  case ValueKind::FPToSI:
    return "fptosi";
  case ValueKind::IntToPtr:
    return "inttoptr";
  case ValueKind::PtrToInt:
    return "ptrtoint";
  case ValueKind::ICmp:
    return "icmp";
  case ValueKind::FCmp:
    return "fcmp";
  case ValueKind::Select:
    return "select";
  case ValueKind::Alloca:
    return "alloca";
  case ValueKind::Load:
    return "load";
  case ValueKind::Store:
    return "store";
  case ValueKind::PtrAdd:
    return "ptradd";
  case ValueKind::AtomicAdd:
    return "atomicadd";
  case ValueKind::ThreadIdx:
    return "thread_idx";
  case ValueKind::BlockIdx:
    return "block_idx";
  case ValueKind::BlockDim:
    return "block_dim";
  case ValueKind::GridDim:
    return "grid_dim";
  case ValueKind::Barrier:
    return "barrier";
  case ValueKind::Call:
    return "call";
  case ValueKind::Phi:
    return "phi";
  case ValueKind::Br:
    return "br";
  case ValueKind::CondBr:
    return "condbr";
  case ValueKind::Ret:
    return "ret";
  }
  proteus_unreachable("unknown value kind");
}

Value::~Value() {
  assert(UseList.empty() &&
         "value deleted while still in use; erase users first");
}

void UseVector::grow() {
  // One heap array of twice the capacity; Use is trivially copyable.
  auto *NewData =
      static_cast<Use *>(::operator new(2 * size_t(Capacity) * sizeof(Use)));
  std::copy_n(Data, Size, NewData);
  if (Data != Inline)
    ::operator delete(Data);
  Data = NewData;
  Capacity *= 2;
}

uint32_t Value::addUse(User *U, uint32_t OperandIndex) {
  UseList.push_back(Use{U, OperandIndex});
  return static_cast<uint32_t>(UseList.size() - 1);
}

void Value::removeUse(uint32_t Slot) {
  assert(Slot < UseList.size() && "bad use slot");
  uint32_t Last = static_cast<uint32_t>(UseList.size() - 1);
  if (Slot != Last) {
    UseList[Slot] = UseList[Last];
    // Fix the back-pointer of the use we moved into this slot.
    Use &Moved = UseList[Slot];
    Moved.TheUser->UseSlots[Moved.OperandIndex] = Slot;
  }
  UseList.pop_back();
}

void Value::replaceAllUsesWith(Value *NewValue) {
  assert(NewValue && "cannot RAUW with null");
  assert(NewValue != this && "RAUW with self is a no-op loop");
  assert(NewValue->getType() == getType() &&
         "RAUW requires matching types");
  while (!UseList.empty()) {
    Use U = UseList.back();
    U.TheUser->setOperand(U.OperandIndex, NewValue);
  }
}

User::~User() {
  // Subclasses are expected to have called dropAllReferences() via
  // eraseFromParent paths; handle direct deletion too.
  dropAllReferences();
  if (Ops != InlineOps)
    ::operator delete(Ops);
}

void User::reserveOperands(size_t N) {
  if (N <= Capacity)
    return;
  assert(N <= UINT32_MAX && "too many operands");
  // One block: the operand pointers, then their use slots.
  auto *NewOps = static_cast<Value **>(
      ::operator new(N * (sizeof(Value *) + sizeof(uint32_t))));
  auto *NewSlots = reinterpret_cast<uint32_t *>(NewOps + N);
  std::copy_n(Ops, NumOperands, NewOps);
  std::copy_n(UseSlots, NumOperands, NewSlots);
  if (Ops != InlineOps)
    ::operator delete(Ops);
  Ops = NewOps;
  UseSlots = NewSlots;
  Capacity = static_cast<uint32_t>(N);
}

void User::addOperand(Value *V) {
  assert(V && "null operand");
  if (NumOperands == Capacity)
    reserveOperands(2 * size_t(Capacity) + 2);
  uint32_t Index = NumOperands++;
  Ops[Index] = V;
  UseSlots[Index] = V->addUse(this, Index);
}

void User::removeLastOperand() {
  assert(NumOperands && "no operand to remove");
  uint32_t Index = --NumOperands;
  Ops[Index]->removeUse(UseSlots[Index]);
}

void User::setOperand(size_t I, Value *V) {
  assert(I < NumOperands && "operand index out of range");
  assert(V && "null operand");
  if (Ops[I] == V)
    return;
  Ops[I]->removeUse(UseSlots[I]);
  Ops[I] = V;
  UseSlots[I] = V->addUse(this, static_cast<uint32_t>(I));
}

void User::dropAllReferences() {
  for (uint32_t I = 0; I != NumOperands; ++I)
    Ops[I]->removeUse(UseSlots[I]);
  NumOperands = 0;
}
