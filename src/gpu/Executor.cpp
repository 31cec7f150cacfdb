//===- Executor.cpp - functional GPU execution -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Per-thread interpretation of allocated machine code. Each kernel is
// decoded once, at load, into a flat instruction stream (decodeKernel) in
// which every instruction names its handler: one per (op, sub-op, operand
// type), so a typed handler such as Binary_Add_I32 is a single add and
// mask. launchKernel is a direct-threaded interpreter over that stream:
// each handler ends in its own indirect jump to the next instruction's
// handler (GCC/Clang labels as values). The handlers, their enum and the
// label table all come from the one PROTEUS_EXEC_HANDLERS table below.
// Semantics come from ir/OpSemantics.h, so the executor agrees bit-for-bit
// with the reference IR interpreter and the constant folder.
//
// Threads run sequentially (the simulation is deterministic); atomics
// therefore serialize naturally. The step budget is charged per
// straight-line run, when a thread enters it; a run the budget cannot cover
// executes the covered prefix from a copy that ends in the StepLimit
// handler, so the failing step, the stores before it and the L2 access
// order match a per-instruction check. Decoding rejects streams that could
// run past their last instruction, so no handler checks the PC.
//
// Address map: [0, MemSize) is device global memory; addresses at or above
// LocalBase are thread-private scratch from allocas, resolved per thread.
//
//===----------------------------------------------------------------------===//

#include "gpu/Executor.h"

#include "gpu/PerfModel.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::mcode;
using pir::Type;
using pir::ValueKind;

// The handler table: one row X(Family, SubOp, Type) per handler. It expands
// to the Handler enum, to launchKernel's label table and to the handler
// bodies (PROTEUS_EXEC_<Family>). `Any` marks a family without that axis;
// Ld/St use the access width in bytes as their sub-op.
// PROTEUS_EXEC_TYPED emits one row per Type::Kind in enum order and each
// family lists its sub-ops in enum order: decode's index arithmetic
// (typedHandler) relies on both.
#define PROTEUS_EXEC_TYPED(X, F, S)                                            \
  X(F, S, Void) X(F, S, I1) X(F, S, I32) X(F, S, I64) X(F, S, F32)             \
  X(F, S, F64) X(F, S, Ptr)

#define PROTEUS_EXEC_HANDLERS(X)                                               \
  X(Nop, Any, Any) X(MovRR, Any, Any) X(MovImm, Any, Any) X(Sel, Any, Any)     \
  X(LdSpill, Any, Any) X(StSpill, Any, Any) X(ReadSpecial, Any, Any)           \
  X(Br, Any, Any) X(CondBr, Any, Any) X(Ret, Any, Any) X(StepLimit, Any, Any)  \
  X(Ld, 1, Any) X(Ld, 4, Any) X(Ld, 8, Any)                                    \
  X(St, 1, Any) X(St, 4, Any) X(St, 8, Any)                                    \
  X(Cast, Trunc, Any) X(Cast, ZExt, Any) X(Cast, SExt, Any)                    \
  X(Cast, FPExt, Any) X(Cast, FPTrunc, Any) X(Cast, SIToFP, Any)               \
  X(Cast, UIToFP, Any) X(Cast, FPToSI, Any) X(Cast, IntToPtr, Any)             \
  X(Cast, PtrToInt, Any)                                                       \
  PROTEUS_EXEC_TYPED(X, PtrAdd, Any)                                           \
  PROTEUS_EXEC_TYPED(X, AtomicAdd, Any)                                        \
  PROTEUS_EXEC_TYPED(X, Binary, Add) PROTEUS_EXEC_TYPED(X, Binary, Sub)        \
  PROTEUS_EXEC_TYPED(X, Binary, Mul) PROTEUS_EXEC_TYPED(X, Binary, SDiv)       \
  PROTEUS_EXEC_TYPED(X, Binary, UDiv) PROTEUS_EXEC_TYPED(X, Binary, SRem)      \
  PROTEUS_EXEC_TYPED(X, Binary, URem) PROTEUS_EXEC_TYPED(X, Binary, And)       \
  PROTEUS_EXEC_TYPED(X, Binary, Or) PROTEUS_EXEC_TYPED(X, Binary, Xor)         \
  PROTEUS_EXEC_TYPED(X, Binary, Shl) PROTEUS_EXEC_TYPED(X, Binary, LShr)       \
  PROTEUS_EXEC_TYPED(X, Binary, AShr) PROTEUS_EXEC_TYPED(X, Binary, FAdd)      \
  PROTEUS_EXEC_TYPED(X, Binary, FSub) PROTEUS_EXEC_TYPED(X, Binary, FMul)      \
  PROTEUS_EXEC_TYPED(X, Binary, FDiv) PROTEUS_EXEC_TYPED(X, Binary, Pow)       \
  PROTEUS_EXEC_TYPED(X, Binary, FMin) PROTEUS_EXEC_TYPED(X, Binary, FMax)      \
  PROTEUS_EXEC_TYPED(X, Binary, SMin) PROTEUS_EXEC_TYPED(X, Binary, SMax)      \
  PROTEUS_EXEC_TYPED(X, Unary, FNeg) PROTEUS_EXEC_TYPED(X, Unary, Sqrt)        \
  PROTEUS_EXEC_TYPED(X, Unary, Exp) PROTEUS_EXEC_TYPED(X, Unary, Log)          \
  PROTEUS_EXEC_TYPED(X, Unary, Sin) PROTEUS_EXEC_TYPED(X, Unary, Cos)          \
  PROTEUS_EXEC_TYPED(X, Unary, Fabs) PROTEUS_EXEC_TYPED(X, Unary, Floor)       \
  PROTEUS_EXEC_TYPED(X, ICmp, EQ) PROTEUS_EXEC_TYPED(X, ICmp, NE)              \
  PROTEUS_EXEC_TYPED(X, ICmp, SLT) PROTEUS_EXEC_TYPED(X, ICmp, SLE)            \
  PROTEUS_EXEC_TYPED(X, ICmp, SGT) PROTEUS_EXEC_TYPED(X, ICmp, SGE)            \
  PROTEUS_EXEC_TYPED(X, ICmp, ULT) PROTEUS_EXEC_TYPED(X, ICmp, ULE)            \
  PROTEUS_EXEC_TYPED(X, ICmp, UGT) PROTEUS_EXEC_TYPED(X, ICmp, UGE)            \
  PROTEUS_EXEC_TYPED(X, FCmp, OEQ) PROTEUS_EXEC_TYPED(X, FCmp, ONE)            \
  PROTEUS_EXEC_TYPED(X, FCmp, OLT) PROTEUS_EXEC_TYPED(X, FCmp, OLE)            \
  PROTEUS_EXEC_TYPED(X, FCmp, OGT) PROTEUS_EXEC_TYPED(X, FCmp, OGE)

namespace {

constexpr uint64_t LocalBase = 1ull << 40;

enum Handler : uint16_t {
#define PROTEUS_EXEC_ENUM(F, S, T) H_##F##_##S##_##T,
  PROTEUS_EXEC_HANDLERS(PROTEUS_EXEC_ENUM)
#undef PROTEUS_EXEC_ENUM
};

constexpr unsigned NumTypeKinds = static_cast<unsigned>(Type::Kind::Ptr) + 1;

/// Handler of a typed family: \p First is its (sub-op 0, Void) row.
constexpr uint16_t typedHandler(Handler First, unsigned SubOp, Type::Kind T) {
  return static_cast<uint16_t>(First + SubOp * NumTypeKinds +
                               static_cast<unsigned>(T));
}

constexpr unsigned sub(ValueKind K, ValueKind First) {
  return static_cast<unsigned>(K) - static_cast<unsigned>(First);
}

// Each family's last row sits where typedHandler puts it.
static_assert(H_PtrAdd_Any_Ptr ==
              typedHandler(H_PtrAdd_Any_Void, 0, Type::Kind::Ptr));
static_assert(H_AtomicAdd_Any_Ptr ==
              typedHandler(H_AtomicAdd_Any_Void, 0, Type::Kind::Ptr));
static_assert(H_Binary_SMax_Ptr ==
              typedHandler(H_Binary_Add_Void,
                           sub(ValueKind::SMax, ValueKind::Add),
                           Type::Kind::Ptr));
static_assert(H_Unary_Floor_Ptr ==
              typedHandler(H_Unary_FNeg_Void,
                           sub(ValueKind::Floor, ValueKind::FNeg),
                           Type::Kind::Ptr));
static_assert(H_ICmp_UGE_Ptr ==
              typedHandler(H_ICmp_EQ_Void,
                           static_cast<unsigned>(pir::ICmpPred::UGE),
                           Type::Kind::Ptr));
static_assert(H_FCmp_OGE_Ptr ==
              typedHandler(H_FCmp_OEQ_Void,
                           static_cast<unsigned>(pir::FCmpPred::OGE),
                           Type::Kind::Ptr));
static_assert(H_Cast_PtrToInt_Any ==
              H_Cast_Trunc_Any + sub(ValueKind::PtrToInt, ValueKind::Trunc));

/// Bytes a load, store or atomic of type kind \p T moves.
constexpr unsigned accessBytes(Type::Kind T) {
  return T == Type::Kind::I1                              ? 1
         : T == Type::Kind::I32 || T == Type::Kind::F32 ? 4
                                                          : 8;
}

/// The update an AtomicAdd of type kind \p T applies.
constexpr ValueKind atomicKind(Type::Kind T) {
  return T == Type::Kind::F32 || T == Type::Kind::F64 ? ValueKind::FAdd
                                                      : ValueKind::Add;
}

bool inKinds(uint16_t Aux, ValueKind First, ValueKind Last) {
  return Aux >= static_cast<uint16_t>(First) &&
         Aux <= static_cast<uint16_t>(Last);
}

bool isTerminator(MOp Op) {
  return Op == MOp::Br || Op == MOp::CondBr || Op == MOp::Ret;
}

/// Decodes one instruction; returns false when an operand is out of range
/// for the kernel's register file, spill area, code or sub-opcode space.
bool decodeInstr(const MachineFunction &MF, const MachineInstr &MI,
                 const std::vector<uint32_t> &BlockStart, uint32_t CodeSize,
                 DecodedInstr &D) {
  if (MI.Op > MOp::Alloca || MI.TypeTag > Type::Kind::Ptr)
    return false;
  const Type::Kind T = MI.TypeTag;
  const unsigned Bytes = accessBytes(T);
  D.Op = MI.Op;
  D.Dst = MI.Dst;
  D.Src1 = MI.Src1;
  D.Src2 = MI.Src2;
  D.Src3 = MI.Src3;
  D.Imm = MI.Imm;
  const StatSlot Alu = MI.Uniform ? StatSlot::SALUInsts : StatSlot::VALUInsts;
  D.Stats[0] = StatSlot::TotalInstrs;

  // Which register operands the op reads and writes.
  bool Dst = true, S1 = false, S2 = false, S3 = false;
  bool AuxOk = true;
  switch (MI.Op) {
  case MOp::Nop:
    Dst = false;
    D.Handler = H_Nop_Any_Any;
    break;
  case MOp::Ret:
    Dst = false;
    D.Handler = H_Ret_Any_Any;
    break;
  case MOp::MovRR:
    S1 = true;
    D.Stats[1] = Alu;
    D.Handler = H_MovRR_Any_Any;
    break;
  case MOp::MovImm:
    // Immediate materialization is folded into instruction encodings
    // (inline literals / constant banks) on both real ISAs: free.
    D.Stats[0] = StatSlot::Discard;
    D.Handler = H_MovImm_Any_Any;
    break;
  case MOp::Binary: {
    S1 = S2 = true;
    D.Stats[1] = Alu;
    AuxOk = inKinds(MI.Aux, ValueKind::Add, ValueKind::SMax);
    auto K = static_cast<ValueKind>(MI.Aux);
    if (K == ValueKind::Pow)
      D.Stats[2] = StatSlot::TranscendentalInsts;
    else if (K == ValueKind::SDiv || K == ValueKind::UDiv ||
             K == ValueKind::SRem || K == ValueKind::URem ||
             K == ValueKind::FDiv)
      D.Stats[2] = StatSlot::DivInsts;
    D.Handler = typedHandler(H_Binary_Add_Void, sub(K, ValueKind::Add), T);
    break;
  }
  case MOp::Unary: {
    S1 = true;
    D.Stats[1] = Alu;
    AuxOk = inKinds(MI.Aux, ValueKind::FNeg, ValueKind::Floor);
    auto K = static_cast<ValueKind>(MI.Aux);
    if (K != ValueKind::FNeg && K != ValueKind::Fabs)
      D.Stats[2] = StatSlot::TranscendentalInsts;
    D.Handler = typedHandler(H_Unary_FNeg_Void, sub(K, ValueKind::FNeg), T);
    break;
  }
  case MOp::Cast:
    S1 = true;
    D.Stats[1] = Alu;
    AuxOk = inKinds(MI.Aux, ValueKind::Trunc, ValueKind::PtrToInt) &&
            MI.Imm2 >= 0 && MI.Imm2 <= static_cast<int32_t>(Type::Kind::Ptr);
    D.CastFrom = T;
    D.CastTo = static_cast<Type::Kind>(MI.Imm2);
    D.Handler = static_cast<uint16_t>(
        H_Cast_Trunc_Any + sub(static_cast<ValueKind>(MI.Aux),
                               ValueKind::Trunc));
    break;
  case MOp::ICmp:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(pir::ICmpPred::UGE);
    D.Handler = typedHandler(H_ICmp_EQ_Void, MI.Aux, T);
    break;
  case MOp::FCmp:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(pir::FCmpPred::OGE);
    D.Handler = typedHandler(H_FCmp_OEQ_Void, MI.Aux, T);
    break;
  case MOp::Sel:
    S1 = S2 = S3 = true;
    D.Stats[1] = Alu;
    D.Handler = H_Sel_Any_Any;
    break;
  case MOp::Ld:
    S1 = true;
    D.Stats[1] = StatSlot::MemLoads;
    D.Handler = Bytes == 1 ? H_Ld_1_Any : Bytes == 4 ? H_Ld_4_Any : H_Ld_8_Any;
    break;
  case MOp::St:
    Dst = false;
    S1 = S2 = true;
    D.Stats[1] = StatSlot::MemStores;
    D.Handler = Bytes == 1 ? H_St_1_Any : Bytes == 4 ? H_St_4_Any : H_St_8_Any;
    break;
  case MOp::PtrAdd:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    D.Handler = typedHandler(H_PtrAdd_Any_Void, 0, T);
    break;
  case MOp::AtomicAdd:
    S1 = S2 = true;
    D.Stats[1] = StatSlot::Atomics;
    D.Handler = typedHandler(H_AtomicAdd_Any_Void, 0, T);
    break;
  case MOp::LdSpill:
    D.Stats[1] = StatSlot::SpillLoads;
    AuxOk = MI.Imm >= 0 && static_cast<uint64_t>(MI.Imm) < MF.NumSpillSlots;
    D.Handler = H_LdSpill_Any_Any;
    break;
  case MOp::StSpill:
    Dst = false;
    S1 = true;
    D.Stats[1] = StatSlot::SpillStores;
    AuxOk = MI.Imm >= 0 && static_cast<uint64_t>(MI.Imm) < MF.NumSpillSlots;
    D.Handler = H_StSpill_Any_Any;
    break;
  case MOp::ReadSpecial:
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(SpecialReg::NctaidZ);
    D.Imm = MI.Aux;
    D.Handler = H_ReadSpecial_Any_Any;
    break;
  case MOp::Bar:
    // Thread-sequential functional simulation: a barrier only costs time
    // (allocas are thread-private, so no cross-thread data flows through
    // it).
    Dst = false;
    D.Stats[1] = StatSlot::Barriers;
    D.Handler = H_Nop_Any_Any;
    break;
  case MOp::Br:
  case MOp::CondBr:
    Dst = false;
    S1 = MI.Op == MOp::CondBr;
    D.Stats[1] = StatSlot::Branches;
    AuxOk = MI.Imm >= 0 && static_cast<uint64_t>(MI.Imm) < BlockStart.size() &&
            (!S1 || static_cast<uint32_t>(MI.Imm2) < BlockStart.size());
    if (AuxOk) {
      D.Imm = BlockStart[static_cast<size_t>(MI.Imm)];
      D.Imm2 = S1 ? BlockStart[static_cast<uint32_t>(MI.Imm2)] : 0;
      // A target past the last instruction (trailing empty blocks) would
      // run off the end of the code.
      AuxOk = D.Imm < CodeSize && D.Imm2 < CodeSize;
    }
    D.Handler = S1 ? H_CondBr_Any_Any : H_Br_Any_Any;
    break;
  case MOp::Alloca:
    D.Stats[1] = Alu;
    D.Imm = static_cast<int64_t>(LocalBase + static_cast<uint64_t>(MI.Imm));
    D.Handler = H_MovImm_Any_Any;
    break;
  }
  const uint32_t N = MF.NumRegs;
  return AuxOk && (!Dst || MI.Dst < N) && (!S1 || MI.Src1 < N) &&
         (!S2 || MI.Src2 < N) && (!S3 || MI.Src3 < N);
}

} // namespace

bool proteus::gpu::decodeKernel(const MachineFunction &MF, LoadedKernel &Out,
                                std::string *Error) {
  auto fail = [&](std::string Msg) {
    if (Error)
      *Error = std::move(Msg);
    return false;
  };
  if (!MF.Allocated)
    return fail("kernel " + MF.Name + " is not register-allocated");
  for (const MachineParam &P : MF.Params) {
    bool InRange =
        P.ArgReg != NoReg
            ? P.ArgReg < MF.NumRegs
            : P.SpillSlot < 0 ||
                  static_cast<uint32_t>(P.SpillSlot) < MF.NumSpillSlots;
    if (!InRange)
      return fail("kernel " + MF.Name + ": parameter register out of range");
  }

  std::vector<uint32_t> BlockStart;
  uint32_t Total = 0;
  for (const MachineBlock &MB : MF.Blocks) {
    BlockStart.push_back(Total);
    Total += static_cast<uint32_t>(MB.Instrs.size());
  }
  Out.Code.clear();
  Out.Code.reserve(Total);
  for (const MachineBlock &MB : MF.Blocks)
    for (const MachineInstr &MI : MB.Instrs) {
      Out.Code.emplace_back();
      if (!decodeInstr(MF, MI, BlockStart, Total, Out.Code.back()))
        return fail(formatString("kernel %s: malformed %s at instruction %zu",
                                 MF.Name.c_str(), mopName(MI.Op),
                                 Out.Code.size() - 1));
    }
  // Every entry point (instruction 0 and the branch targets checked above)
  // then reaches a terminator before the end of the code.
  if (Out.Code.empty() || !isTerminator(Out.Code.back().Op))
    return fail("kernel " + MF.Name + ": code falls off its end");
  uint32_t Run = 0;
  for (auto It = Out.Code.rbegin(); It != Out.Code.rend(); ++It) {
    Run = isTerminator(It->Op) ? 1 : Run + 1;
    It->RunLength = Run;
  }
  Out.Name = MF.Name;
  Out.Params = MF.Params;
  Out.NumRegs = MF.NumRegs;
  Out.NumSpillSlots = MF.NumSpillSlots;
  Out.LocalBytes = MF.LocalBytes;
  Out.LaunchBoundsThreads = MF.LaunchBoundsThreads;
  return true;
}

// The executor's dispatch and handler bodies, expanded inside launchKernel's
// thread loop, where I (the current instruction), Code, Regs, Spill, Geo,
// Budget and Entries are in scope.

// Enters the straight-line run at instruction index To: counts the entry,
// charges the run to the step budget and jumps to its first handler.
#define ENTER(To)                                                              \
  do {                                                                         \
    const uint32_t Target = (To);                                              \
    ++Entries[Target];                                                         \
    I = Code + Target;                                                         \
    if (I->RunLength > Budget)                                                 \
      goto BudgetShort;                                                        \
    Budget -= I->RunLength;                                                    \
    goto *Labels[I->Handler];                                                  \
  } while (0)
#define NEXT goto *Labels[(++I)->Handler]
#define FAIL(Message)                                                          \
  do {                                                                         \
    Out.Error = (Message);                                                     \
    goto ThreadDone;                                                           \
  } while (0)

// Handler bodies, one macro per family; S and T are the row's sub-op and
// type.
#define PROTEUS_EXEC_Nop(S, T) NEXT;
#define PROTEUS_EXEC_MovRR(S, T)                                               \
  Regs[I->Dst] = Regs[I->Src1];                                                \
  NEXT;
#define PROTEUS_EXEC_MovImm(S, T)                                              \
  Regs[I->Dst] = static_cast<uint64_t>(I->Imm);                                \
  NEXT;
#define PROTEUS_EXEC_Sel(S, T)                                                 \
  Regs[I->Dst] = (Regs[I->Src1] & 1) ? Regs[I->Src2] : Regs[I->Src3];          \
  NEXT;
#define PROTEUS_EXEC_LdSpill(S, T)                                             \
  Regs[I->Dst] = Spill[I->Imm];                                                \
  NEXT;
#define PROTEUS_EXEC_StSpill(S, T)                                             \
  Spill[I->Imm] = Regs[I->Src1];                                               \
  NEXT;
#define PROTEUS_EXEC_ReadSpecial(S, T)                                         \
  Regs[I->Dst] = Geo[I->Imm];                                                  \
  NEXT;
#define PROTEUS_EXEC_Br(S, T) ENTER(static_cast<uint32_t>(I->Imm));
#define PROTEUS_EXEC_CondBr(S, T)                                              \
  ENTER((Regs[I->Src1] & 1) ? static_cast<uint32_t>(I->Imm) : I->Imm2);
#define PROTEUS_EXEC_Ret(S, T) goto ThreadDone;
#define PROTEUS_EXEC_StepLimit(S, T)                                           \
  FAIL("per-thread step limit exceeded in " + Kernel.Name);
#define PROTEUS_EXEC_Ld(S, T)                                                  \
  {                                                                            \
    const uint64_t Addr = Regs[I->Src1];                                       \
    const uint8_t *P = resolve(Addr, S);                                       \
    if (!P)                                                                    \
      FAIL(formatString("load out of bounds at 0x%llx in %s",                  \
                        static_cast<unsigned long long>(Addr),                 \
                        Kernel.Name.c_str()));                                 \
    uint64_t Bits = 0;                                                         \
    std::memcpy(&Bits, P, S);                                                  \
    Regs[I->Dst] = Bits;                                                       \
    touchL2(Addr);                                                             \
  }                                                                            \
  NEXT;
#define PROTEUS_EXEC_St(S, T)                                                  \
  {                                                                            \
    const uint64_t Addr = Regs[I->Src2];                                       \
    uint8_t *P = resolve(Addr, S);                                             \
    if (!P)                                                                    \
      FAIL(formatString("store out of bounds at 0x%llx in %s",                 \
                        static_cast<unsigned long long>(Addr),                 \
                        Kernel.Name.c_str()));                                 \
    std::memcpy(P, &Regs[I->Src1], S);                                         \
    touchL2(Addr);                                                             \
  }                                                                            \
  NEXT;
#define PROTEUS_EXEC_AtomicAdd(S, T)                                           \
  {                                                                            \
    constexpr unsigned Bytes = accessBytes(Type::Kind::T);                     \
    const uint64_t Addr = Regs[I->Src1];                                       \
    uint8_t *P = resolve(Addr, Bytes);                                         \
    if (!P)                                                                    \
      FAIL("atomic out of bounds in " + Kernel.Name);                          \
    uint64_t Old = 0;                                                          \
    std::memcpy(&Old, P, Bytes);                                               \
    const uint64_t Sum = pir::sem::evalBinary(                                 \
        atomicKind(Type::Kind::T), Type::Kind::T, Old, Regs[I->Src2]);         \
    std::memcpy(P, &Sum, Bytes);                                               \
    Regs[I->Dst] = Old;                                                        \
    L2.access(Addr) ? ++L2Hits : ++L2Misses;                                   \
  }                                                                            \
  NEXT;
#define PROTEUS_EXEC_PtrAdd(S, T)                                              \
  Regs[I->Dst] =                                                               \
      Regs[I->Src1] +                                                          \
      static_cast<uint64_t>(pir::sem::signExtend(Type::Kind::T,                \
                                                 Regs[I->Src2])) *             \
          static_cast<uint64_t>(I->Imm);                                       \
  NEXT;
#define PROTEUS_EXEC_Cast(S, T)                                                \
  Regs[I->Dst] =                                                               \
      pir::sem::evalCast(ValueKind::S, I->CastFrom, I->CastTo, Regs[I->Src1]); \
  NEXT;
#define PROTEUS_EXEC_Binary(S, T)                                              \
  Regs[I->Dst] = pir::sem::evalBinary(ValueKind::S, Type::Kind::T,             \
                                      Regs[I->Src1], Regs[I->Src2]);           \
  NEXT;
#define PROTEUS_EXEC_Unary(S, T)                                               \
  Regs[I->Dst] =                                                               \
      pir::sem::evalUnary(ValueKind::S, Type::Kind::T, Regs[I->Src1]);         \
  NEXT;
#define PROTEUS_EXEC_ICmp(S, T)                                                \
  Regs[I->Dst] = pir::sem::evalICmp(pir::ICmpPred::S, Type::Kind::T,           \
                                    Regs[I->Src1], Regs[I->Src2]);             \
  NEXT;
#define PROTEUS_EXEC_FCmp(S, T)                                                \
  Regs[I->Dst] = pir::sem::evalFCmp(pir::FCmpPred::S, Type::Kind::T,           \
                                    Regs[I->Src1], Regs[I->Src2]);             \
  NEXT;
#define PROTEUS_EXEC_HANDLER(F, S, T)                                          \
  H_##F##_##S##_##T : PROTEUS_EXEC_##F(S, T)

LaunchResult proteus::gpu::launchKernel(Device &Dev,
                                        const LoadedKernel &Kernel,
                                        Dim3 Grid, Dim3 Block,
                                        const std::vector<KernelArg> &Args,
                                        uint64_t MaxStepsPerThread) {
  LaunchResult Out;
  if (Args.size() != Kernel.Params.size()) {
    Out.Error = formatString("argument count mismatch: got %zu, kernel %s "
                             "takes %zu",
                             Args.size(), Kernel.Name.c_str(),
                             Kernel.Params.size());
    return Out;
  }
  if (Grid.count() == 0 || Block.count() == 0) {
    Out.Error = "empty grid or block";
    return Out;
  }

  LaunchStats &S = Out.Stats;
  S.Kernel = Kernel.Name;
  S.Blocks = Grid.count();
  S.ThreadsPerBlock = Block.count();
  S.RegsUsed = Kernel.NumRegs;
  S.SpillSlots = Kernel.NumSpillSlots;
  S.LaunchBoundsThreads = Kernel.LaunchBoundsThreads;

  uint8_t *const Mem = Dev.memory().data();
  L2Cache &L2 = Dev.l2();
  const DecodedInstr *const Code = Kernel.Code.data();
  const uint32_t CodeSize = static_cast<uint32_t>(Kernel.Code.size());

  // One scratch buffer the device keeps across launches holds the entry
  // counts, one thread's registers, spill slots and local bytes, and the
  // image every thread starts from (zeros and the arguments).
  // Instruction counts are derived after the launch from how often each
  // instruction index was entered (thread start or branch target): every
  // straight-line run from an entry to the next terminator executes whole.
  const size_t LocalWords = (Kernel.LocalBytes + 7) / 8;
  const size_t ThreadWords = Kernel.NumRegs + Kernel.NumSpillSlots + LocalWords;
  std::vector<uint64_t> &Scratch = Dev.LaunchScratch;
  Scratch.assign(CodeSize + 2 * ThreadWords, 0);
  uint64_t *const Entries = Scratch.data();
  uint64_t *const Regs = Entries + CodeSize;
  uint64_t *const Spill = Regs + Kernel.NumRegs;
  uint8_t *const Local =
      reinterpret_cast<uint8_t *>(Spill + Kernel.NumSpillSlots);
  uint64_t *const Start = Regs + ThreadWords;
  for (size_t A = 0; A != Args.size(); ++A) {
    const MachineParam &P = Kernel.Params[A];
    if (P.ArgReg != NoReg)
      Start[P.ArgReg] = Args[A].Bits;
    else if (P.SpillSlot >= 0)
      Start[Kernel.NumRegs + static_cast<size_t>(P.SpillSlot)] = Args[A].Bits;
  }
  uint64_t L2Hits = 0, L2Misses = 0;
  // The covered prefix of a run the step budget cannot finish, followed by
  // a StepLimit instruction.
  std::vector<DecodedInstr> Tail;
  DecodedInstr StepLimit;
  StepLimit.Handler = H_StepLimit_Any_Any;

  // Scratch (spill + alloca) L2 pollution: give each thread distinct
  // synthetic addresses above the global range so heavy spilling evicts
  // useful lines, as it does on real hardware.
  const uint64_t ScratchL2Base = Dev.memory().size();
  const uint64_t PerThreadScratch =
      static_cast<uint64_t>(Kernel.NumSpillSlots) * 8 + Kernel.LocalBytes +
      64;
  uint64_t ThreadScratchBase = 0;

  /// Host address of [Addr, Addr + Size), or null when out of bounds.
  auto resolve = [&](uint64_t Addr, unsigned Size) -> uint8_t * {
    if (Addr >= LocalBase) {
      uint64_t Off = Addr - LocalBase;
      return Off + Size > Kernel.LocalBytes ? nullptr : Local + Off;
    }
    return Dev.validRange(Addr, Size) ? Mem + Addr : nullptr;
  };
  auto touchL2 = [&](uint64_t Addr) {
    bool Hit = L2.access(Addr >= LocalBase
                             ? ThreadScratchBase + (Addr - LocalBase)
                             : Addr);
    Hit ? ++L2Hits : ++L2Misses;
  };

  static const void *const Labels[] = {
#define PROTEUS_EXEC_LABEL(F, S, T) &&H_##F##_##S##_##T,
      PROTEUS_EXEC_HANDLERS(PROTEUS_EXEC_LABEL)
#undef PROTEUS_EXEC_LABEL
  };

  const uint64_t BlocksTotal = Grid.count();
  const uint64_t ThreadsPerBlk = Block.count();
  uint64_t ThreadLinear = 0;
  // Geometry registers in SpecialReg order: tid, ctaid, ntid, nctaid.
  uint32_t Geo[12] = {0, 0, 0, 0, 0, 0, Block.X, Block.Y, Block.Z,
                      Grid.X, Grid.Y, Grid.Z};

  for (uint64_t Blk = 0; Blk != BlocksTotal && Out.Error.empty(); ++Blk) {
    Geo[3] = static_cast<uint32_t>(Blk % Grid.X);
    Geo[4] = static_cast<uint32_t>(Blk / Grid.X % Grid.Y);
    Geo[5] = static_cast<uint32_t>(
        Blk / (static_cast<uint64_t>(Grid.X) * Grid.Y));
    // tid steps x-fastest and wraps, so threads pay no division.
    Geo[0] = Geo[1] = Geo[2] = 0;
    for (uint64_t T = 0; T != ThreadsPerBlk && Out.Error.empty();
         ++T, ++ThreadLinear) {
      std::memcpy(Regs, Start, ThreadWords * 8);
      ThreadScratchBase = ScratchL2Base + ThreadLinear * PerThreadScratch;

      uint64_t Budget = MaxStepsPerThread;
      const DecodedInstr *I = Code;

      ENTER(0);
      PROTEUS_EXEC_HANDLERS(PROTEUS_EXEC_HANDLER)

    BudgetShort:
      // The run entered at I needs more steps than remain: execute exactly
      // Budget of its instructions (none of them a terminator) from a copy
      // that ends in StepLimit.
      Tail.assign(I, I + Budget);
      Tail.push_back(StepLimit);
      I = Tail.data();
      goto *Labels[I->Handler];

    ThreadDone:
      if (++Geo[0] == Block.X) {
        Geo[0] = 0;
        if (++Geo[1] == Block.Y) {
          Geo[1] = 0;
          ++Geo[2];
        }
      }
    }
  }

  if (!Out.Error.empty())
    return Out;

  uint64_t Count[static_cast<size_t>(StatSlot::NumSlots)] = {};
  uint64_t Executed = 0;
  for (uint32_t Idx = 0; Idx != CodeSize; ++Idx) {
    const DecodedInstr &I = Code[Idx];
    Executed += Entries[Idx];
    for (StatSlot Slot : I.Stats)
      Count[static_cast<size_t>(Slot)] += Executed;
    if (isTerminator(I.Op))
      Executed = 0;
  }
  auto count = [&](StatSlot Slot) { return Count[static_cast<size_t>(Slot)]; };
  S.TotalInstrs = count(StatSlot::TotalInstrs);
  S.VALUInsts = count(StatSlot::VALUInsts);
  S.SALUInsts = count(StatSlot::SALUInsts);
  S.MemLoads = count(StatSlot::MemLoads);
  S.MemStores = count(StatSlot::MemStores);
  S.SpillLoads = count(StatSlot::SpillLoads);
  S.SpillStores = count(StatSlot::SpillStores);
  S.Atomics = count(StatSlot::Atomics);
  S.Branches = count(StatSlot::Branches);
  S.Barriers = count(StatSlot::Barriers);
  S.TranscendentalInsts = count(StatSlot::TranscendentalInsts);
  S.DivInsts = count(StatSlot::DivInsts);
  S.L2Hits = L2Hits;
  S.L2Misses = L2Misses;

  // The executor computes the launch's cost but does not charge any stream
  // timeline: the Runtime.h wrappers decide which timeline pays (serial
  // barrier for gpuLaunchKernel, the target stream for the Async variant).
  applyPerfModel(Dev.target(), S);
  Dev.LastLaunch = S;
  auto [It, First] = Dev.Profile.try_emplace(S.Kernel);
  if (First)
    It->second = S;
  else
    It->second.accumulate(S);
  Out.Ok = true;
  return Out;
}
