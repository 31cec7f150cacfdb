//===- ISel.cpp - instruction selection ----------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "codegen/ISel.h"

#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "support/Error.h"

#include <unordered_map>

using namespace proteus;
using namespace proteus::mcode;
using namespace pir;

namespace {

class Selector {
public:
  explicit Selector(Function &F)
      : F(F), BlockIndex(F), VRegs(F, NoReg), PhiTmps(F, NoReg) {}

  MachineFunction run() {
    MF.Name = F.getName();
    if (const auto &LB = F.getLaunchBounds()) {
      MF.LaunchBoundsThreads = LB->MaxThreadsPerBlock;
      MF.LaunchBoundsMinBlocks = LB->MinBlocksPerProcessor;
    }

    for (const auto &A : F.args()) {
      Reg R = newReg();
      VRegs[A.get()] = R;
      MF.Params.push_back(
          MachineParam{A->getType()->getKind(), R});
    }

    // Number blocks in layout order; create empty machine blocks.
    uint32_t Index = 0;
    for (BasicBlock &BB : F) {
      BlockIndex[&BB] = Index++;
      MachineBlock MB;
      MB.Name = BB.getName();
      MF.Blocks.push_back(std::move(MB));
    }

    // Pre-assign result registers for phis. A phi needs two-stage staging
    // (through a temp written at predecessor tails) only when some incoming
    // value is itself a phi of the same block — the classic parallel-copy
    // swap hazard. Everything else copies directly into the phi register,
    // which halves the cross-back-edge register pressure of wide
    // accumulator bands.
    for (BasicBlock &BB : F)
      for (PhiInst *Phi : BB.phis())
        VRegs[Phi] = newReg();
    for (BasicBlock &BB : F)
      for (PhiInst *Phi : BB.phis()) {
        bool Hazard = false;
        for (size_t K = 0; K != Phi->getNumIncoming(); ++K) {
          // Swap hazard: the incoming value is another phi of this block.
          auto *InPhi = dyn_cast<PhiInst>(Phi->getIncomingValue(K));
          if (InPhi && InPhi->getParent() == &BB)
            Hazard = true;
          // Clobber hazard: a predecessor with multiple successors writes
          // phi registers even when branching elsewhere; the phi's current
          // value may still be read on the other path.
          if (Phi->getIncomingBlock(K)->successors().size() > 1)
            Hazard = true;
        }
        if (Hazard)
          PhiTmps[Phi] = newReg();
      }

    for (BasicBlock &BB : F)
      lowerBlock(BB);

    MF.NumRegs = NextReg;
    return std::move(MF);
  }

private:
  Reg newReg() { return NextReg++; }

  void emit(MachineBlock &MB, MachineInstr MI) {
    MB.Instrs.push_back(MI);
  }

  /// Returns the register holding \p V inside \p MB, materializing
  /// constants/globals on demand (cached per block).
  Reg regFor(MachineBlock &MB, Value *V) {
    if (V->getValueId() != Value::NoValueId) {
      // An argument or instruction. One defined in a block laid out later
      // (the inliner appends callee blocks, and the Tier-0 preset has no
      // SimplifyCFG to reorder them) has no register yet: its def dominates
      // this use, so reserve its register now and let lowerInstruction
      // write it.
      Reg &R = VRegs[V];
      if (R == NoReg)
        R = newReg();
      return R;
    }

    auto CIt = BlockConstRegs.find(V);
    if (CIt != BlockConstRegs.end())
      return CIt->second;

    MachineInstr MI;
    MI.Op = MOp::MovImm;
    MI.Dst = newReg();
    if (auto *CI = dyn_cast<ConstantInt>(V)) {
      MI.Imm = static_cast<int64_t>(CI->getZExtValue());
      MI.TypeTag = CI->getType()->getKind();
    } else if (auto *CF = dyn_cast<ConstantFP>(V)) {
      uint64_t Bits = CF->getType()->isF32()
                          ? sem::boxF32(static_cast<float>(CF->getValue()))
                          : sem::boxF64(CF->getValue());
      MI.Imm = static_cast<int64_t>(Bits);
      MI.TypeTag = CF->getType()->getKind();
    } else if (auto *CP = dyn_cast<ConstantPtr>(V)) {
      MI.Imm = static_cast<int64_t>(CP->getAddress());
      MI.TypeTag = Type::Kind::Ptr;
    } else if (auto *G = dyn_cast<GlobalVariable>(V)) {
      // Address resolved at device-image load time.
      MI.Imm = 0;
      MI.TypeTag = Type::Kind::Ptr;
      MF.Relocs.push_back(Relocation{BlockIndex[CurBB],
                                     static_cast<uint32_t>(MB.Instrs.size()),
                                     G->getName()});
    } else {
      reportFatalError("isel: unsupported operand kind");
    }
    emit(MB, MI);
    BlockConstRegs[V] = MI.Dst;
    return MI.Dst;
  }

  void lowerBlock(BasicBlock &BB) {
    CurBB = &BB;
    BlockConstRegs.clear();
    MachineBlock &MB = MF.Blocks[BlockIndex[&BB]];

    // Phi heads: PhiReg <- PhiTmp for staged phis only.
    for (PhiInst *Phi : BB.phis()) {
      if (&BB == &F.getEntryBlock())
        reportFatalError("isel: phi in entry block");
      if (PhiTmps[Phi] == NoReg)
        continue;
      MachineInstr MI;
      MI.Op = MOp::MovRR;
      MI.TypeTag = Phi->getType()->getKind();
      MI.Dst = VRegs[Phi];
      MI.Src1 = PhiTmps[Phi];
      emit(MB, MI);
    }

    for (Instruction &I : BB) {
      if (isa<PhiInst>(&I))
        continue;
      if (I.isTerminator()) {
        emitPhiTmpCopies(BB, MB);
        lowerTerminator(MB, I);
        continue;
      }
      lowerInstruction(MB, I);
    }
  }

  /// At the end of \p BB (before its terminator), copy each successor phi's
  /// incoming value into its staging register (hazardous phis) or directly
  /// into the phi register. Direct writes are safe because a direct phi's
  /// incoming value is never another phi of the same successor: sources
  /// read here are either staged temps (read-only at successor heads) or
  /// values unrelated to the registers written.
  void emitPhiTmpCopies(BasicBlock &BB, MachineBlock &MB) {
    for (BasicBlock *Succ : BB.successors()) {
      // Stage 1: hazardous phis write their temps (reads happen first).
      for (PhiInst *Phi : Succ->phis()) {
        if (PhiTmps[Phi] == NoReg)
          continue;
        Value *In = Phi->getIncomingValueForBlock(&BB);
        if (!In)
          reportFatalError("isel: phi missing incoming for predecessor");
        MachineInstr MI;
        MI.Op = MOp::MovRR;
        MI.TypeTag = Phi->getType()->getKind();
        MI.Dst = PhiTmps[Phi];
        MI.Src1 = regFor(MB, In);
        emit(MB, MI);
      }
      // Stage 2: direct phis write their result registers.
      for (PhiInst *Phi : Succ->phis()) {
        if (PhiTmps[Phi] != NoReg)
          continue;
        Value *In = Phi->getIncomingValueForBlock(&BB);
        if (!In)
          reportFatalError("isel: phi missing incoming for predecessor");
        MachineInstr MI;
        MI.Op = MOp::MovRR;
        MI.TypeTag = Phi->getType()->getKind();
        MI.Dst = VRegs[Phi];
        MI.Src1 = regFor(MB, In);
        emit(MB, MI);
      }
    }
  }

  void lowerTerminator(MachineBlock &MB, Instruction &I) {
    MachineInstr MI;
    switch (I.getKind()) {
    case ValueKind::Br: {
      MI.Op = MOp::Br;
      MI.Imm = BlockIndex[cast<BranchInst>(I).getSuccessor(0)];
      emit(MB, MI);
      return;
    }
    case ValueKind::CondBr: {
      auto &Br = cast<BranchInst>(I);
      MI.Op = MOp::CondBr;
      MI.Src1 = regFor(MB, Br.getCondition());
      MI.Imm = BlockIndex[Br.getSuccessor(0)];
      MI.Imm2 = static_cast<int32_t>(BlockIndex[Br.getSuccessor(1)]);
      emit(MB, MI);
      return;
    }
    case ValueKind::Ret: {
      if (cast<RetInst>(I).hasReturnValue())
        reportFatalError("isel: kernels must return void");
      MI.Op = MOp::Ret;
      emit(MB, MI);
      return;
    }
    default:
      proteus_unreachable("unknown terminator");
    }
  }

  void lowerInstruction(MachineBlock &MB, Instruction &I) {
    MachineInstr MI;
    switch (I.getKind()) {
    case ValueKind::ICmp: {
      auto &C = cast<ICmpInst>(I);
      MI.Op = MOp::ICmp;
      MI.TypeTag = C.getLHS()->getType()->getKind();
      MI.Aux = static_cast<uint16_t>(C.getPredicate());
      MI.Src1 = regFor(MB, C.getLHS());
      MI.Src2 = regFor(MB, C.getRHS());
      break;
    }
    case ValueKind::FCmp: {
      auto &C = cast<FCmpInst>(I);
      MI.Op = MOp::FCmp;
      MI.TypeTag = C.getLHS()->getType()->getKind();
      MI.Aux = static_cast<uint16_t>(C.getPredicate());
      MI.Src1 = regFor(MB, C.getLHS());
      MI.Src2 = regFor(MB, C.getRHS());
      break;
    }
    case ValueKind::Select: {
      MI.Op = MOp::Sel;
      MI.TypeTag = I.getType()->getKind();
      MI.Src1 = regFor(MB, I.getOperand(0));
      MI.Src2 = regFor(MB, I.getOperand(1));
      MI.Src3 = regFor(MB, I.getOperand(2));
      break;
    }
    case ValueKind::Alloca: {
      auto &A = cast<AllocaInst>(I);
      MI.Op = MOp::Alloca;
      MI.TypeTag = Type::Kind::Ptr;
      MI.Imm = MF.LocalBytes;
      MI.Imm2 = static_cast<int32_t>(A.allocationSizeBytes());
      MF.LocalBytes += A.allocationSizeBytes();
      break;
    }
    case ValueKind::Load: {
      MI.Op = MOp::Ld;
      MI.TypeTag = I.getType()->getKind();
      MI.Src1 = regFor(MB, I.getOperand(0));
      break;
    }
    case ValueKind::Store: {
      auto &S = cast<StoreInst>(I);
      MI.Op = MOp::St;
      MI.TypeTag = S.getValue()->getType()->getKind();
      MI.Src1 = regFor(MB, S.getValue());
      MI.Src2 = regFor(MB, S.getPointer());
      break;
    }
    case ValueKind::PtrAdd: {
      auto &P = cast<PtrAddInst>(I);
      MI.Op = MOp::PtrAdd;
      MI.TypeTag = P.getIndex()->getType()->getKind();
      MI.Src1 = regFor(MB, P.getBase());
      MI.Src2 = regFor(MB, P.getIndex());
      MI.Imm = P.getElemSize();
      break;
    }
    case ValueKind::AtomicAdd: {
      auto &A = cast<AtomicAddInst>(I);
      MI.Op = MOp::AtomicAdd;
      MI.TypeTag = A.getValue()->getType()->getKind();
      MI.Src1 = regFor(MB, A.getPointer());
      MI.Src2 = regFor(MB, A.getValue());
      break;
    }
    case ValueKind::ThreadIdx:
    case ValueKind::BlockIdx:
    case ValueKind::BlockDim:
    case ValueKind::GridDim: {
      auto &G = cast<GpuIndexInst>(I);
      MI.Op = MOp::ReadSpecial;
      MI.TypeTag = Type::Kind::I32;
      unsigned Base = 0;
      switch (I.getKind()) {
      case ValueKind::ThreadIdx:
        Base = 0;
        break;
      case ValueKind::BlockIdx:
        Base = 3;
        break;
      case ValueKind::BlockDim:
        Base = 6;
        break;
      default:
        Base = 9;
        break;
      }
      MI.Aux = static_cast<uint16_t>(Base + G.getDim());
      break;
    }
    case ValueKind::Barrier: {
      MI.Op = MOp::Bar;
      emit(MB, MI);
      return;
    }
    case ValueKind::Call:
      reportFatalError("isel: call survived inlining in @" + F.getName());
    default: {
      if (isa<BinaryInst>(&I)) {
        MI.Op = MOp::Binary;
        MI.TypeTag = I.getType()->getKind();
        MI.Aux = static_cast<uint16_t>(I.getKind());
        MI.Src1 = regFor(MB, I.getOperand(0));
        MI.Src2 = regFor(MB, I.getOperand(1));
        break;
      }
      if (isa<UnaryInst>(&I)) {
        MI.Op = MOp::Unary;
        MI.TypeTag = I.getType()->getKind();
        MI.Aux = static_cast<uint16_t>(I.getKind());
        MI.Src1 = regFor(MB, I.getOperand(0));
        break;
      }
      if (auto *C = dyn_cast<CastInst>(&I)) {
        MI.Op = MOp::Cast;
        // TypeTag carries the *source* type; Imm2 the destination kind.
        MI.TypeTag = C->getSource()->getType()->getKind();
        MI.Aux = static_cast<uint16_t>(I.getKind());
        MI.Imm2 = static_cast<int32_t>(I.getType()->getKind());
        MI.Src1 = regFor(MB, C->getSource());
        break;
      }
      reportFatalError("isel: unhandled instruction kind");
    }
    }
    if (!I.getType()->isVoid()) {
      Reg &R = VRegs[&I]; // may be reserved by a forward use
      if (R == NoReg)
        R = newReg();
      MI.Dst = R;
    }
    emit(MB, MI);
  }

  Function &F;
  MachineFunction MF;
  BasicBlock *CurBB = nullptr;
  Reg NextReg = 0;
  ValueIdMap<uint32_t> BlockIndex; // layout position
  ValueIdMap<Reg> VRegs;           // arguments and instructions
  ValueIdMap<Reg> PhiTmps;         // staging register of hazardous phis
  /// Constants and globals materialized in the block being lowered.
  std::unordered_map<Value *, Reg> BlockConstRegs;
};

} // namespace

MachineFunction proteus::selectInstructions(Function &F) {
  if (F.isDeclaration())
    reportFatalError("isel: cannot select a declaration");
  MachineFunction MF = Selector(F).run();
  computeUniformity(MF);
  return MF;
}

void proteus::computeUniformity(MachineFunction &MF) {
  // Forward fixpoint over registers: a register is uniform until proven
  // divergent; instructions become divergent if any input is.
  std::vector<bool> Divergent(MF.NumRegs, false);
  bool Changed = true;
  auto markDef = [&](Reg R, bool Div) {
    if (R != NoReg && Div && !Divergent[R]) {
      Divergent[R] = true;
      return true;
    }
    return false;
  };
  while (Changed) {
    Changed = false;
    for (MachineBlock &MB : MF.Blocks) {
      for (MachineInstr &MI : MB.Instrs) {
        bool Div = false;
        switch (MI.Op) {
        case MOp::ReadSpecial:
          Div = MI.Aux <= static_cast<uint16_t>(SpecialReg::TidZ);
          break;
        case MOp::Ld:
        case MOp::AtomicAdd:
        case MOp::Alloca:
        case MOp::LdSpill:
          Div = true;
          break;
        default:
          for (Reg S : {MI.Src1, MI.Src2, MI.Src3})
            if (S != NoReg && Divergent[S])
              Div = true;
          break;
        }
        Changed |= markDef(MI.Dst, Div);
      }
    }
  }
  for (MachineBlock &MB : MF.Blocks)
    for (MachineInstr &MI : MB.Instrs) {
      bool Div = false;
      if (MI.Dst != NoReg) {
        Div = Divergent[MI.Dst];
      } else {
        for (Reg S : {MI.Src1, MI.Src2, MI.Src3})
          if (S != NoReg && Divergent[S])
            Div = true;
      }
      MI.Uniform = !Div;
    }
}
