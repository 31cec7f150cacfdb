//===- RegAlloc.cpp - linear-scan register allocation ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Pipeline: global instruction numbering -> per-block liveness (iterative
// backward dataflow over register bitsets) -> live intervals -> Poletto/
// Sarkar linear scan with furthest-end spilling -> rewrite (spilled virtual
// registers load/store through reserved temporaries).
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include "support/Error.h"

#include <algorithm>
#include <utility>
#include <vector>

using namespace proteus;
using namespace proteus::mcode;

namespace {

/// Rows of dense bitsets over virtual registers, one row per block, in
/// one allocation.
class BlockRegSets {
public:
  BlockRegSets(size_t NumBlocks, size_t NumRegs)
      : Stride((NumRegs + 63) / 64), Words(NumBlocks * Stride, 0) {}

  size_t stride() const { return Stride; }
  uint64_t *row(size_t B) { return Words.data() + B * Stride; }
  const uint64_t *row(size_t B) const { return Words.data() + B * Stride; }

  template <typename Fn> void forEach(size_t B, Fn F) const {
    const uint64_t *Row = row(B);
    for (size_t I = 0; I != Stride; ++I)
      for (uint64_t W = Row[I]; W; W &= W - 1)
        F(static_cast<Reg>(I * 64 + static_cast<unsigned>(__builtin_ctzll(W))));
  }

private:
  size_t Stride;
  std::vector<uint64_t> Words;
};

void setBit(uint64_t *Row, Reg R) { Row[R >> 6] |= 1ULL << (R & 63); }
void resetBit(uint64_t *Row, Reg R) { Row[R >> 6] &= ~(1ULL << (R & 63)); }

template <typename Fn> void forEachUse(const MachineInstr &MI, Fn &&F) {
  if (MI.Src1 != NoReg)
    F(MI.Src1);
  if (MI.Src2 != NoReg)
    F(MI.Src2);
  if (MI.Src3 != NoReg)
    F(MI.Src3);
}

struct Interval {
  Reg VReg;
  uint32_t Start;
  uint32_t End;
};

} // namespace

RegAllocResult proteus::allocateRegisters(MachineFunction &MF,
                                          unsigned RegisterBudget,
                                          const RegAllocOptions &Options) {
  if (MF.Allocated)
    reportFatalError("regalloc: function already allocated");
  if (RegisterBudget < 8)
    RegisterBudget = 8;
  const unsigned NumSpillTemps = 3;
  const unsigned NumAllocatable = RegisterBudget - NumSpillTemps;

  const uint32_t NumVRegs = MF.NumRegs;
  const size_t NumBlocks = MF.Blocks.size();

  // --- Global instruction numbering --------------------------------------
  std::vector<uint32_t> BlockStart(NumBlocks + 1);
  uint32_t Pos = 0;
  for (size_t B = 0; B != NumBlocks; ++B) {
    BlockStart[B] = Pos;
    Pos += static_cast<uint32_t>(MF.Blocks[B].Instrs.size());
  }
  BlockStart[NumBlocks] = Pos;

  // --- Live intervals ------------------------------------------------------
  constexpr uint32_t NoPos = ~0u;
  std::vector<uint32_t> IvStart(NumVRegs, NoPos), IvEnd(NumVRegs, 0);
  auto extend = [&](Reg R, uint32_t P) {
    if (IvStart[R] == NoPos || P < IvStart[R])
      IvStart[R] = P;
    if (P > IvEnd[R])
      IvEnd[R] = P;
  };
  if (Options.Fast) {
    // Tier-0 interval approximation in one forward pass, no dataflow.
    // A value whose every reference sits in a single block *and* whose
    // first reference is its definition cannot be live around a back edge,
    // so its [first-ref, last-ref] range is exact. Everything else is
    // conservatively live for the whole function — always safe (a
    // cross-block value may be live around any loop), just greedier on
    // registers than the full liveness fixpoint.
    const uint32_t LastPos = Pos == 0 ? 0 : Pos - 1;
    std::vector<uint32_t> FirstBlock(NumVRegs, NoPos);
    std::vector<uint8_t> CrossBlock(NumVRegs, 0), FirstIsDef(NumVRegs, 0);
    auto reference = [&](Reg R, uint32_t B, uint32_t P, bool IsDef) {
      if (FirstBlock[R] == NoPos) {
        FirstBlock[R] = B;
        FirstIsDef[R] = IsDef;
      } else if (FirstBlock[R] != B) {
        CrossBlock[R] = 1;
      }
      extend(R, P);
    };
    for (size_t B = 0; B != NumBlocks; ++B) {
      uint32_t P = BlockStart[B];
      for (const MachineInstr &MI : MF.Blocks[B].Instrs) {
        // Uses before the def: a reg both read and written by one
        // instruction is first referenced as a use.
        forEachUse(MI, [&](Reg R) {
          reference(R, static_cast<uint32_t>(B), P, false);
        });
        if (MI.Dst != NoReg)
          reference(MI.Dst, static_cast<uint32_t>(B), P, true);
        ++P;
      }
    }
    for (Reg R = 0; R != NumVRegs; ++R)
      if (IvStart[R] != NoPos && (CrossBlock[R] || !FirstIsDef[R])) {
        IvStart[R] = 0;
        IvEnd[R] = LastPos;
      }
  } else {
    // --- Liveness ----------------------------------------------------------
    // One walk per block computes its upward-exposed uses (Gen) and its
    // defs (Kill), and records each reference's position; the fixpoint
    // then iterates In = Gen | (Out & ~Kill) over bitsets alone.
    BlockRegSets Gen(NumBlocks, NumVRegs), Kill(NumBlocks, NumVRegs);
    std::vector<uint32_t> Succs(2 * NumBlocks);
    std::vector<uint8_t> NumSuccs(NumBlocks, 0);
    for (size_t B = 0; B != NumBlocks; ++B) {
      const auto &Instrs = MF.Blocks[B].Instrs;
      uint64_t *G = Gen.row(B), *K = Kill.row(B);
      for (size_t I = Instrs.size(); I-- > 0;) {
        const MachineInstr &MI = Instrs[I];
        uint32_t P = BlockStart[B] + static_cast<uint32_t>(I);
        if (MI.Dst != NoReg) {
          setBit(K, MI.Dst);
          resetBit(G, MI.Dst);
          extend(MI.Dst, P);
        }
        forEachUse(MI, [&](Reg R) {
          setBit(G, R);
          extend(R, P);
        });
      }
      if (Instrs.empty())
        continue;
      const MachineInstr &Term = Instrs.back();
      if (Term.Op == MOp::Br) {
        Succs[2 * B] = static_cast<uint32_t>(Term.Imm);
        NumSuccs[B] = 1;
      } else if (Term.Op == MOp::CondBr) {
        Succs[2 * B] = static_cast<uint32_t>(Term.Imm);
        Succs[2 * B + 1] = static_cast<uint32_t>(Term.Imm2);
        NumSuccs[B] = 2;
      }
    }

    BlockRegSets LiveIn(NumBlocks, NumVRegs), LiveOut(NumBlocks, NumVRegs);
    const size_t W = LiveIn.stride();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t B = NumBlocks; B-- > 0;) {
        uint64_t *Out = LiveOut.row(B), *In = LiveIn.row(B);
        const uint64_t *G = Gen.row(B), *K = Kill.row(B);
        for (size_t S = 0; S != NumSuccs[B]; ++S) {
          const uint64_t *SuccIn = LiveIn.row(Succs[2 * B + S]);
          for (size_t I = 0; I != W; ++I)
            Out[I] |= SuccIn[I];
        }
        for (size_t I = 0; I != W; ++I) {
          uint64_t New = In[I] | G[I] | (Out[I] & ~K[I]);
          Changed |= New != In[I];
          In[I] = New;
        }
      }
    }

    for (size_t B = 0; B != NumBlocks; ++B) {
      LiveIn.forEach(B, [&](Reg R) { extend(R, BlockStart[B]); });
      uint32_t Last = BlockStart[B + 1] == 0 ? 0 : BlockStart[B + 1] - 1;
      LiveOut.forEach(B, [&](Reg R) { extend(R, Last); });
    }
  }

  // Parameters are written at launch (position 0): their intervals must
  // cover [0, last use] so no other interval reuses their register earlier.
  for (const MachineParam &P : MF.Params)
    if (IvStart[P.ArgReg] != NoPos)
      IvStart[P.ArgReg] = 0;

  // Intervals in (Start, VReg) order: a counting sort on Start, filled in
  // increasing VReg order.
  std::vector<uint32_t> StartCount(Pos + 1, 0);
  size_t NumIntervals = 0;
  for (Reg R = 0; R != NumVRegs; ++R)
    if (IvStart[R] != NoPos) {
      ++StartCount[IvStart[R]];
      ++NumIntervals;
    }
  for (uint32_t P = 0, Sum = 0; P != Pos + 1; ++P)
    Sum += std::exchange(StartCount[P], Sum);
  std::vector<Interval> Intervals(NumIntervals);
  for (Reg R = 0; R != NumVRegs; ++R)
    if (IvStart[R] != NoPos)
      Intervals[StartCount[IvStart[R]]++] = Interval{R, IvStart[R], IvEnd[R]};

  // --- Rematerialization table -------------------------------------------
  // Values defined exactly once by an immediate move are never reloaded
  // from scratch: their uses re-emit the immediate (free in the ISA model),
  // and their defs need no spill store — like LLVM's remat of constants.
  std::vector<int8_t> DefCount(NumVRegs, 0);
  std::vector<int64_t> RematImm(NumVRegs, 0);
  std::vector<uint8_t> Remat(NumVRegs, 0);
  // Fast (Tier-0) mode skips rematerialization entirely: every spill gets a
  // scratch slot and a plain reload, saving the def-count and relocation
  // scans on the launch-visible path.
  if (!Options.Fast) {
    for (const MachineBlock &MB : MF.Blocks)
      for (const MachineInstr &MI : MB.Instrs)
        if (MI.Dst != NoReg && DefCount[MI.Dst] < 2) {
          ++DefCount[MI.Dst];
          if (MI.Op == MOp::MovImm) {
            RematImm[MI.Dst] = MI.Imm;
            Remat[MI.Dst] = 1;
          } else {
            Remat[MI.Dst] = 0;
          }
        }
    for (Reg R = 0; R != NumVRegs; ++R)
      if (DefCount[R] > 1)
        Remat[R] = 0;

    // A MovImm whose payload is patched by a relocation (device global
    // address) must stay in place: its uses cannot re-emit the immediate.
    for (const Relocation &Rel : MF.Relocs) {
      if (Rel.Block >= MF.Blocks.size() ||
          Rel.InstrIndex >= MF.Blocks[Rel.Block].Instrs.size())
        continue;
      const MachineInstr &MI = MF.Blocks[Rel.Block].Instrs[Rel.InstrIndex];
      if (MI.Dst != NoReg)
        Remat[MI.Dst] = 0;
    }
  }

  // --- Linear scan ----------------------------------------------------------
  RegAllocResult Result;
  std::vector<Reg> Assignment(NumVRegs, NoReg); // physical reg or NoReg
  std::vector<int32_t> SpillSlot(NumVRegs, -1);
  // Free physical registers, one bit each; the lowest set bit is the
  // register the scan takes.
  std::vector<uint64_t> FreePhys((NumAllocatable + 63) / 64, ~0ULL);
  if (NumAllocatable % 64)
    FreePhys.back() = (1ULL << (NumAllocatable % 64)) - 1;
  auto takeLowestFree = [&]() -> Reg {
    for (size_t I = 0; I != FreePhys.size(); ++I)
      if (uint64_t W = FreePhys[I]) {
        FreePhys[I] = W & (W - 1);
        return static_cast<Reg>(I * 64 +
                                static_cast<unsigned>(__builtin_ctzll(W)));
      }
    return NoReg;
  };
  // Active intervals sorted by increasing end; a new interval goes after
  // those with an equal end.
  std::vector<Interval> Active;
  auto activate = [&](const Interval &Iv) {
    auto It = std::upper_bound(
        Active.begin(), Active.end(), Iv,
        [](const Interval &A, const Interval &B) { return A.End < B.End; });
    Active.insert(It, Iv);
  };
  uint32_t MaxPhysUsed = 0;
  uint32_t NextSlot = 0;

  for (const Interval &Iv : Intervals) {
    // The intervals that ended before this one starts are a prefix.
    auto Live = Active.begin();
    for (; Live != Active.end() && Live->End < Iv.Start; ++Live) {
      Reg Phys = Assignment[Live->VReg];
      FreePhys[Phys >> 6] |= 1ULL << (Phys & 63);
    }
    Active.erase(Active.begin(), Live);
    Reg Phys = takeLowestFree();
    if (Phys != NoReg) {
      Assignment[Iv.VReg] = Phys;
      MaxPhysUsed = std::max(MaxPhysUsed, Phys + 1);
      activate(Iv);
      continue;
    }
    // Spill: the active interval with the furthest end, or this one.
    // Rematerializable values need no scratch slot. Fast mode skips the
    // victim search (spill-cost tuning) and always spills the incoming
    // interval itself.
    if (!Options.Fast && !Active.empty() && Active.back().End > Iv.End) {
      Interval Victim = Active.back();
      Active.pop_back();
      Assignment[Iv.VReg] = Assignment[Victim.VReg];
      Assignment[Victim.VReg] = NoReg;
      if (!Remat[Victim.VReg])
        SpillSlot[Victim.VReg] = static_cast<int32_t>(NextSlot++);
      activate(Iv);
    } else if (!Remat[Iv.VReg]) {
      SpillSlot[Iv.VReg] = static_cast<int32_t>(NextSlot++);
    }
    ++Result.SpilledValues;
  }

  // --- Rewrite ---------------------------------------------------------------
  const Reg Temp0 = NumAllocatable;
  // Spill code shifts instruction positions; relocations index into blocks,
  // so a function with relocations records each instruction's new index.
  const bool TrackIndices = !MF.Relocs.empty();
  std::vector<uint32_t> NewIndex(TrackIndices ? Pos : 0);
  // Each block is rewritten into this buffer and swapped in; the block's
  // old storage becomes the buffer for the next one.
  std::vector<MachineInstr> NewInstrs;
  for (size_t B = 0; B != NumBlocks; ++B) {
    std::vector<MachineInstr> &Instrs = MF.Blocks[B].Instrs;
    NewInstrs.clear();
    NewInstrs.reserve(Instrs.size());
    for (size_t I = 0; I != Instrs.size(); ++I) {
      MachineInstr MI = Instrs[I];
      unsigned TempCount = 0;
      Reg SpilledSrc[3] = {NoReg, NoReg, NoReg};
      auto mapSrc = [&](Reg &Src, bool SrcUniform) {
        if (Src == NoReg)
          return;
        if (Assignment[Src] != NoReg) {
          Src = Assignment[Src];
          return;
        }
        // Reload from scratch (or rematerialize an immediate); reuse a temp
        // if the same vreg is already loaded for this instruction.
        for (unsigned K = 0; K != TempCount; ++K)
          if (SpilledSrc[K] == Src) {
            Src = Temp0 + K;
            return;
          }
        Reg T = Temp0 + TempCount;
        MachineInstr Ld;
        if (Remat[Src]) {
          Ld.Op = MOp::MovImm;
          Ld.Dst = T;
          Ld.Imm = RematImm[Src];
          Ld.Uniform = SrcUniform;
        } else {
          Ld.Op = MOp::LdSpill;
          Ld.Dst = T;
          Ld.Imm = SpillSlot[Src];
          Ld.Uniform = SrcUniform;
          ++Result.SpillLoads;
        }
        NewInstrs.push_back(Ld);
        SpilledSrc[TempCount++] = Src;
        Src = T;
      };
      mapSrc(MI.Src1, MI.Uniform);
      mapSrc(MI.Src2, MI.Uniform);
      mapSrc(MI.Src3, MI.Uniform);
      bool DstSpilled = false;
      int64_t DstSlot = 0;
      if (MI.Dst != NoReg) {
        if (Assignment[MI.Dst] != NoReg) {
          MI.Dst = Assignment[MI.Dst];
        } else if (Remat[MI.Dst]) {
          // Rematerializable definition: uses re-emit the immediate, so the
          // defining move can vanish entirely.
          if (TrackIndices)
            NewIndex[BlockStart[B] + I] =
                static_cast<uint32_t>(NewInstrs.size());
          MachineInstr Dead;
          Dead.Op = MOp::Nop;
          NewInstrs.push_back(Dead);
          continue;
        } else {
          DstSpilled = true;
          DstSlot = SpillSlot[MI.Dst];
          MI.Dst = Temp0 + 2; // dedicated def temp
        }
      }
      bool WasUniform = MI.Uniform;
      if (TrackIndices)
        NewIndex[BlockStart[B] + I] = static_cast<uint32_t>(NewInstrs.size());
      NewInstrs.push_back(MI);
      if (DstSpilled) {
        MachineInstr St;
        St.Op = MOp::StSpill;
        St.Src1 = Temp0 + 2;
        St.Imm = DstSlot;
        St.Uniform = WasUniform;
        NewInstrs.push_back(St);
        ++Result.SpillStores;
      }
    }
    Instrs.swap(NewInstrs);
  }

  // Remap relocation instruction indices to post-spill positions.
  for (Relocation &Rel : MF.Relocs)
    if (Rel.Block < NumBlocks &&
        Rel.InstrIndex < BlockStart[Rel.Block + 1] - BlockStart[Rel.Block])
      Rel.InstrIndex = NewIndex[BlockStart[Rel.Block] + Rel.InstrIndex];

  // Rewrite parameter locations to their post-allocation homes.
  for (MachineParam &P : MF.Params) {
    Reg V = P.ArgReg;
    if (IvStart[V] == NoPos) {
      P.ArgReg = NoReg; // never used
      P.SpillSlot = -1;
    } else if (Assignment[V] != NoReg) {
      P.ArgReg = Assignment[V];
    } else {
      P.ArgReg = NoReg;
      P.SpillSlot = SpillSlot[V];
    }
  }

  Result.SpillSlots = NextSlot;
  Result.RegsUsed =
      (Result.SpillLoads || Result.SpillStores)
          ? std::max(MaxPhysUsed, Temp0 + NumSpillTemps)
          : MaxPhysUsed;
  MF.NumRegs = std::max(Result.RegsUsed, 1u);
  MF.NumSpillSlots = NextSlot;
  MF.Allocated = true;
  return Result;
}
