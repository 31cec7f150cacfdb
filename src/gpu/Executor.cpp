//===- Executor.cpp - functional GPU execution -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Per-thread interpretation of allocated machine code. Each kernel is
// decoded once, at load, into a flat instruction stream (decodeKernel);
// semantics come from ir/OpSemantics.h so the executor agrees bit-for-bit
// with the reference IR interpreter and the constant folder. Threads run
// sequentially (the simulation is deterministic); atomics therefore
// serialize naturally.
//
// Address map: [0, MemSize) is device global memory; addresses at or above
// LocalBase are thread-private scratch from allocas, resolved per thread.
//
//===----------------------------------------------------------------------===//

#include "gpu/Executor.h"

#include "gpu/PerfModel.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::mcode;
using pir::Type;
using pir::ValueKind;

namespace {

constexpr uint64_t LocalBase = 1ull << 40;

/// Owner of the Type singletons decoded instructions point at. Types are
/// stateless, so one context serves every kernel.
pir::Context KernelTypes;

bool inKinds(uint16_t Aux, ValueKind First, ValueKind Last) {
  return Aux >= static_cast<uint16_t>(First) &&
         Aux <= static_cast<uint16_t>(Last);
}

/// Decodes one instruction; returns false when an operand is out of range
/// for the kernel's register file, spill area or sub-opcode space.
bool decodeInstr(const MachineFunction &MF, const MachineInstr &MI,
                 const std::vector<uint32_t> &BlockStart, DecodedInstr &D) {
  D.Op = MI.Op;
  D.Aux = MI.Aux;
  D.Dst = MI.Dst;
  D.Src1 = MI.Src1;
  D.Src2 = MI.Src2;
  D.Src3 = MI.Src3;
  D.Imm = MI.Imm;
  D.Ty = KernelTypes.getType(MI.TypeTag);
  D.Size = MI.TypeTag == Type::Kind::I1 ? 1
           : MI.TypeTag == Type::Kind::I32 || MI.TypeTag == Type::Kind::F32
               ? 4
               : 8;
  const StatSlot Alu = MI.Uniform ? StatSlot::SALUInsts : StatSlot::VALUInsts;
  D.Stats[0] = StatSlot::TotalInstrs;

  // Which register operands the op reads and writes.
  bool Dst = true, S1 = false, S2 = false, S3 = false;
  bool AuxOk = true;
  switch (MI.Op) {
  case MOp::Nop:
  case MOp::Ret:
    Dst = false;
    break;
  case MOp::MovRR:
    S1 = true;
    D.Stats[1] = Alu;
    break;
  case MOp::MovImm:
    // Immediate materialization is folded into instruction encodings
    // (inline literals / constant banks) on both real ISAs: free.
    D.Stats[0] = StatSlot::Discard;
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
    break;
  }
  case MOp::Unary: {
    S1 = true;
    D.Stats[1] = Alu;
    AuxOk = inKinds(MI.Aux, ValueKind::FNeg, ValueKind::Floor);
    auto K = static_cast<ValueKind>(MI.Aux);
    if (K != ValueKind::FNeg && K != ValueKind::Fabs)
      D.Stats[2] = StatSlot::TranscendentalInsts;
    break;
  }
  case MOp::Cast:
    S1 = true;
    D.Stats[1] = Alu;
    AuxOk = inKinds(MI.Aux, ValueKind::Trunc, ValueKind::PtrToInt) &&
            MI.Imm2 >= 0 && MI.Imm2 <= static_cast<int32_t>(Type::Kind::Ptr);
    if (AuxOk)
      D.CastTy = KernelTypes.getType(static_cast<Type::Kind>(MI.Imm2));
    break;
  case MOp::ICmp:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(pir::ICmpPred::UGE);
    break;
  case MOp::FCmp:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(pir::FCmpPred::OGE);
    break;
  case MOp::Sel:
    S1 = S2 = S3 = true;
    D.Stats[1] = Alu;
    break;
  case MOp::Ld:
    S1 = true;
    D.Stats[1] = StatSlot::MemLoads;
    break;
  case MOp::St:
    Dst = false;
    S1 = S2 = true;
    D.Stats[1] = StatSlot::MemStores;
    break;
  case MOp::PtrAdd:
    S1 = S2 = true;
    D.Stats[1] = Alu;
    break;
  case MOp::AtomicAdd:
    S1 = S2 = true;
    D.Stats[1] = StatSlot::Atomics;
    D.Aux = static_cast<uint16_t>(D.Ty->isFloatingPoint() ? ValueKind::FAdd
                                                          : ValueKind::Add);
    break;
  case MOp::LdSpill:
    D.Stats[1] = StatSlot::SpillLoads;
    AuxOk = MI.Imm >= 0 && static_cast<uint64_t>(MI.Imm) < MF.NumSpillSlots;
    break;
  case MOp::StSpill:
    Dst = false;
    S1 = true;
    D.Stats[1] = StatSlot::SpillStores;
    AuxOk = MI.Imm >= 0 && static_cast<uint64_t>(MI.Imm) < MF.NumSpillSlots;
    break;
  case MOp::ReadSpecial:
    D.Stats[1] = Alu;
    AuxOk = MI.Aux <= static_cast<uint16_t>(SpecialReg::NctaidZ);
    break;
  case MOp::Bar:
    Dst = false;
    D.Stats[1] = StatSlot::Barriers;
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
    }
    break;
  case MOp::Alloca:
    D.Stats[1] = Alu;
    D.Imm = static_cast<int64_t>(LocalBase + static_cast<uint64_t>(MI.Imm));
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
      if (!decodeInstr(MF, MI, BlockStart, Out.Code.back()))
        return fail(formatString("kernel %s: malformed %s at instruction %zu",
                                 MF.Name.c_str(), mopName(MI.Op),
                                 Out.Code.size() - 1));
    }
  Out.Name = MF.Name;
  Out.Params = MF.Params;
  Out.NumRegs = MF.NumRegs;
  Out.NumSpillSlots = MF.NumSpillSlots;
  Out.LocalBytes = MF.LocalBytes;
  Out.LaunchBoundsThreads = MF.LaunchBoundsThreads;
  return true;
}

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

  std::vector<uint64_t> RegFile(Kernel.NumRegs, 0);
  std::vector<uint64_t> SpillArea(Kernel.NumSpillSlots, 0);
  std::vector<uint8_t> Local(Kernel.LocalBytes, 0);
  uint64_t *const Regs = RegFile.data();
  uint64_t *const Spill = SpillArea.data();
  // Instruction counts are derived after the launch from how often each
  // instruction index was entered (thread start or branch target): every
  // straight-line run from an entry to the next terminator executes whole.
  // One extra slot: an empty last block starts at Code.size().
  std::vector<uint64_t> Entries(Kernel.Code.size() + 1, 0);
  uint64_t L2Hits = 0, L2Misses = 0;

  // Scratch (spill + alloca) L2 pollution: give each thread distinct
  // synthetic addresses above the global range so heavy spilling evicts
  // useful lines, as it does on real hardware.
  const uint64_t ScratchL2Base = Dev.memory().size();
  const uint64_t PerThreadScratch =
      static_cast<uint64_t>(Kernel.NumSpillSlots) * 8 + Kernel.LocalBytes +
      64;

  auto resolve = [&](uint64_t Addr, unsigned Size, uint8_t *&P) -> bool {
    if (Addr >= LocalBase) {
      uint64_t Off = Addr - LocalBase;
      if (Off + Size > Local.size())
        return false;
      P = Local.data() + Off;
      return true;
    }
    if (!Dev.validRange(Addr, Size))
      return false;
    P = Mem + Addr;
    return true;
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
    for (uint64_t T = 0; T != ThreadsPerBlk && Out.Error.empty();
         ++T, ++ThreadLinear) {
      Geo[0] = static_cast<uint32_t>(T % Block.X);
      Geo[1] = static_cast<uint32_t>(T / Block.X % Block.Y);
      Geo[2] = static_cast<uint32_t>(
          T / (static_cast<uint64_t>(Block.X) * Block.Y));

      // Initialize registers/spill slots for this thread.
      std::fill(RegFile.begin(), RegFile.end(), 0);
      std::fill(SpillArea.begin(), SpillArea.end(), 0);
      std::fill(Local.begin(), Local.end(), 0);
      for (size_t A = 0; A != Args.size(); ++A) {
        const MachineParam &P = Kernel.Params[A];
        if (P.ArgReg != NoReg)
          Regs[P.ArgReg] = Args[A].Bits;
        else if (P.SpillSlot >= 0)
          Spill[static_cast<size_t>(P.SpillSlot)] = Args[A].Bits;
      }

      const uint64_t ThreadScratchBase =
          ScratchL2Base + ThreadLinear * PerThreadScratch;
      auto touchL2 = [&](uint64_t Addr) {
        bool Hit = L2.access(Addr >= LocalBase
                                 ? ThreadScratchBase + (Addr - LocalBase)
                                 : Addr);
        Hit ? ++L2Hits : ++L2Misses;
      };

      uint64_t Steps = 0;
      uint32_t PC = 0;
      ++Entries[0];
      bool Running = true;
      while (Running) {
        if (PC >= CodeSize) {
          Out.Error = "PC ran off the end of the kernel";
          break;
        }
        if (++Steps > MaxStepsPerThread) {
          Out.Error = "per-thread step limit exceeded in " + Kernel.Name;
          break;
        }
        const DecodedInstr &I = Code[PC++];
        switch (I.Op) {
        case MOp::Nop:
          break;
        case MOp::MovRR:
          Regs[I.Dst] = Regs[I.Src1];
          break;
        case MOp::MovImm:
          Regs[I.Dst] = static_cast<uint64_t>(I.Imm);
          break;
        case MOp::Binary:
          Regs[I.Dst] = pir::sem::evalBinary(static_cast<ValueKind>(I.Aux),
                                             I.Ty, Regs[I.Src1], Regs[I.Src2]);
          break;
        case MOp::Unary:
          Regs[I.Dst] = pir::sem::evalUnary(static_cast<ValueKind>(I.Aux),
                                            I.Ty, Regs[I.Src1]);
          break;
        case MOp::Cast:
          Regs[I.Dst] = pir::sem::evalCast(static_cast<ValueKind>(I.Aux), I.Ty,
                                           I.CastTy, Regs[I.Src1]);
          break;
        case MOp::ICmp:
          Regs[I.Dst] =
              pir::sem::evalICmp(static_cast<pir::ICmpPred>(I.Aux), I.Ty,
                                 Regs[I.Src1], Regs[I.Src2]);
          break;
        case MOp::FCmp:
          Regs[I.Dst] =
              pir::sem::evalFCmp(static_cast<pir::FCmpPred>(I.Aux), I.Ty,
                                 Regs[I.Src1], Regs[I.Src2]);
          break;
        case MOp::Sel:
          Regs[I.Dst] = (Regs[I.Src1] & 1) ? Regs[I.Src2] : Regs[I.Src3];
          break;
        case MOp::Ld: {
          uint8_t *P = nullptr;
          uint64_t Addr = Regs[I.Src1];
          if (!resolve(Addr, I.Size, P)) {
            Out.Error = formatString("load out of bounds at 0x%llx in %s",
                                     static_cast<unsigned long long>(Addr),
                                     Kernel.Name.c_str());
            Running = false;
            break;
          }
          uint64_t Bits = 0;
          std::memcpy(&Bits, P, I.Size);
          Regs[I.Dst] = Bits;
          touchL2(Addr);
          break;
        }
        case MOp::St: {
          uint8_t *P = nullptr;
          uint64_t Addr = Regs[I.Src2];
          if (!resolve(Addr, I.Size, P)) {
            Out.Error = formatString("store out of bounds at 0x%llx in %s",
                                     static_cast<unsigned long long>(Addr),
                                     Kernel.Name.c_str());
            Running = false;
            break;
          }
          std::memcpy(P, &Regs[I.Src1], I.Size);
          touchL2(Addr);
          break;
        }
        case MOp::PtrAdd: {
          int64_t Idx = pir::sem::signExtend(I.Ty, Regs[I.Src2]);
          Regs[I.Dst] = Regs[I.Src1] + static_cast<uint64_t>(Idx * I.Imm);
          break;
        }
        case MOp::AtomicAdd: {
          uint8_t *P = nullptr;
          uint64_t Addr = Regs[I.Src1];
          if (!resolve(Addr, I.Size, P)) {
            Out.Error = "atomic out of bounds in " + Kernel.Name;
            Running = false;
            break;
          }
          uint64_t Old = 0;
          std::memcpy(&Old, P, I.Size);
          uint64_t Sum = pir::sem::evalBinary(static_cast<ValueKind>(I.Aux),
                                              I.Ty, Old, Regs[I.Src2]);
          std::memcpy(P, &Sum, I.Size);
          Regs[I.Dst] = Old;
          L2.access(Addr) ? ++L2Hits : ++L2Misses;
          break;
        }
        case MOp::LdSpill:
          Regs[I.Dst] = Spill[static_cast<size_t>(I.Imm)];
          break;
        case MOp::StSpill:
          Spill[static_cast<size_t>(I.Imm)] = Regs[I.Src1];
          break;
        case MOp::ReadSpecial:
          Regs[I.Dst] = Geo[I.Aux];
          break;
        case MOp::Bar:
          // Thread-sequential functional simulation: a barrier only costs
          // time (allocas are thread-private, so no cross-thread data flows
          // through it).
          break;
        case MOp::Br:
          PC = static_cast<uint32_t>(I.Imm);
          ++Entries[PC];
          break;
        case MOp::CondBr:
          PC = (Regs[I.Src1] & 1) ? static_cast<uint32_t>(I.Imm) : I.Imm2;
          ++Entries[PC];
          break;
        case MOp::Ret:
          Running = false;
          break;
        case MOp::Alloca:
          Regs[I.Dst] = static_cast<uint64_t>(I.Imm);
          break;
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
    if (I.Op == MOp::Br || I.Op == MOp::CondBr || I.Op == MOp::Ret)
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
  auto It = Dev.Profile.find(S.Kernel);
  if (It == Dev.Profile.end()) {
    Dev.Profile[S.Kernel] = S;
  } else {
    It->second.accumulate(S);
  }
  Out.Ok = true;
  return Out;
}
