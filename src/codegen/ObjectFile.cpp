//===- ObjectFile.cpp - compiled kernel container -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "codegen/ObjectFile.h"

#include "support/BinaryStream.h"

using namespace proteus;
using namespace proteus::mcode;

namespace {
constexpr uint32_t ObjMagic = 0x4A424F50; // "POBJ"
constexpr uint32_t ObjVersion = 1;
} // namespace

std::vector<uint8_t> proteus::writeObject(const MachineFunction &MF,
                                          GpuArch Arch) {
  // The exact object size, field by field as written below: the header
  // (magic, version, arch, name, five u32 fields, allocated flag), then
  // the counted parameters (9 bytes each), relocations and blocks (34
  // bytes per instruction). The writer fills one buffer of that size.
  size_t Size = 4 + 4 + 1 + 4 + MF.Name.size() + 5 * 4 + 1 + 4 +
                9 * MF.Params.size() + 4 + 4;
  for (const Relocation &R : MF.Relocs)
    Size += 4 + 4 + 4 + R.Symbol.size();
  for (const MachineBlock &MB : MF.Blocks)
    Size += 4 + MB.Name.size() + 4 + 34 * MB.Instrs.size();
  ByteWriter W;
  W.reserve(Size);
  W.writeU32(ObjMagic);
  W.writeU32(ObjVersion);
  W.writeU8(static_cast<uint8_t>(Arch));
  W.writeString(MF.Name);
  W.writeU32(MF.NumRegs);
  W.writeU32(MF.NumSpillSlots);
  W.writeU32(MF.LocalBytes);
  W.writeU32(MF.LaunchBoundsThreads);
  W.writeU32(MF.LaunchBoundsMinBlocks);
  W.writeU8(MF.Allocated ? 1 : 0);

  W.writeU32(static_cast<uint32_t>(MF.Params.size()));
  for (const MachineParam &P : MF.Params) {
    W.writeU8(static_cast<uint8_t>(P.TypeKind));
    W.writeU32(P.ArgReg);
    W.writeU32(static_cast<uint32_t>(P.SpillSlot));
  }

  W.writeU32(static_cast<uint32_t>(MF.Relocs.size()));
  for (const Relocation &R : MF.Relocs) {
    W.writeU32(R.Block);
    W.writeU32(R.InstrIndex);
    W.writeString(R.Symbol);
  }

  W.writeU32(static_cast<uint32_t>(MF.Blocks.size()));
  for (const MachineBlock &MB : MF.Blocks) {
    W.writeString(MB.Name);
    W.writeU32(static_cast<uint32_t>(MB.Instrs.size()));
    for (const MachineInstr &MI : MB.Instrs) {
      W.writeU8(static_cast<uint8_t>(MI.Op));
      W.writeU8(static_cast<uint8_t>(MI.TypeTag));
      W.writeU32(MI.Aux | (MI.Uniform ? 0x10000u : 0u));
      W.writeU32(MI.Dst);
      W.writeU32(MI.Src1);
      W.writeU32(MI.Src2);
      W.writeU32(MI.Src3);
      W.writeU64(static_cast<uint64_t>(MI.Imm));
      W.writeU32(static_cast<uint32_t>(MI.Imm2));
    }
  }
  return W.take();
}

ObjectReadResult proteus::readObject(const std::vector<uint8_t> &Bytes) {
  ObjectReadResult Out;
  ByteReader R(Bytes);
  auto fail = [&](const char *Msg) {
    Out.Ok = false;
    Out.Error = Msg;
    return Out;
  };
  if (R.readU32() != ObjMagic || R.readU32() != ObjVersion)
    return fail("bad object magic/version");
  uint8_t Arch = R.readU8();
  if (Arch > 1)
    return fail("bad architecture tag");
  Out.Arch = static_cast<GpuArch>(Arch);
  MachineFunction &MF = Out.MF;
  MF.Name = R.readString();
  MF.NumRegs = R.readU32();
  MF.NumSpillSlots = R.readU32();
  MF.LocalBytes = R.readU32();
  MF.LaunchBoundsThreads = R.readU32();
  MF.LaunchBoundsMinBlocks = R.readU32();
  MF.Allocated = R.readU8() != 0;

  uint32_t NumParams = R.readU32();
  if (NumParams > 65536)
    return fail("parameter count too large");
  for (uint32_t I = 0; I != NumParams && R.ok(); ++I) {
    MachineParam P;
    uint8_t TK = R.readU8();
    if (TK > static_cast<uint8_t>(pir::Type::Kind::Ptr))
      return fail("bad parameter type");
    P.TypeKind = static_cast<pir::Type::Kind>(TK);
    P.ArgReg = R.readU32();
    P.SpillSlot = static_cast<int32_t>(R.readU32());
    MF.Params.push_back(P);
  }

  uint32_t NumRelocs = R.readU32();
  if (NumRelocs > 1u << 20)
    return fail("relocation count too large");
  for (uint32_t I = 0; I != NumRelocs && R.ok(); ++I) {
    Relocation Rel;
    Rel.Block = R.readU32();
    Rel.InstrIndex = R.readU32();
    Rel.Symbol = R.readString();
    MF.Relocs.push_back(std::move(Rel));
  }

  uint32_t NumBlocks = R.readU32();
  if (NumBlocks > 1u << 20)
    return fail("block count too large");
  for (uint32_t B = 0; B != NumBlocks && R.ok(); ++B) {
    MachineBlock MB;
    MB.Name = R.readString();
    uint32_t NumInstrs = R.readU32();
    if (NumInstrs > 1u << 24)
      return fail("instruction count too large");
    MB.Instrs.reserve(NumInstrs);
    for (uint32_t I = 0; I != NumInstrs && R.ok(); ++I) {
      MachineInstr MI;
      uint8_t Op = R.readU8();
      if (Op > static_cast<uint8_t>(MOp::Alloca))
        return fail("bad machine opcode");
      MI.Op = static_cast<MOp>(Op);
      uint8_t TT = R.readU8();
      if (TT > static_cast<uint8_t>(pir::Type::Kind::Ptr))
        return fail("bad type tag");
      MI.TypeTag = static_cast<pir::Type::Kind>(TT);
      uint32_t Aux = R.readU32();
      MI.Aux = static_cast<uint16_t>(Aux & 0xFFFF);
      MI.Uniform = (Aux & 0x10000u) != 0;
      MI.Dst = R.readU32();
      MI.Src1 = R.readU32();
      MI.Src2 = R.readU32();
      MI.Src3 = R.readU32();
      MI.Imm = static_cast<int64_t>(R.readU64());
      MI.Imm2 = static_cast<int32_t>(R.readU32());
      MB.Instrs.push_back(MI);
    }
    MF.Blocks.push_back(std::move(MB));
  }
  if (!R.ok())
    return fail("truncated object");
  // Sanity-check branch targets so the executor can trust them.
  for (const MachineBlock &MB : MF.Blocks)
    for (const MachineInstr &MI : MB.Instrs) {
      if (MI.Op == MOp::Br && static_cast<uint64_t>(MI.Imm) >= NumBlocks)
        return fail("branch target out of range");
      if (MI.Op == MOp::CondBr &&
          (static_cast<uint64_t>(MI.Imm) >= NumBlocks ||
           static_cast<uint32_t>(MI.Imm2) >= NumBlocks))
        return fail("branch target out of range");
    }
  Out.Ok = true;
  return Out;
}
