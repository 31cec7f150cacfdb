//===- Ptx.cpp - PTX-like textual assembly step ---------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Ptx.h"

#include "support/StringUtils.h"

#include <charconv>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>

using namespace proteus;
using namespace proteus::mcode;

namespace {

const char *typeTagName(pir::Type::Kind K) {
  switch (K) {
  case pir::Type::Kind::Void:
    return "void";
  case pir::Type::Kind::I1:
    return "pred";
  case pir::Type::Kind::I32:
    return "s32";
  case pir::Type::Kind::I64:
    return "s64";
  case pir::Type::Kind::F32:
    return "f32";
  case pir::Type::Kind::F64:
    return "f64";
  case pir::Type::Kind::Ptr:
    return "u64";
  }
  return "u64";
}

int typeTagFromName(std::string_view S) {
  if (S == "void")
    return static_cast<int>(pir::Type::Kind::Void);
  if (S == "pred")
    return static_cast<int>(pir::Type::Kind::I1);
  if (S == "s32")
    return static_cast<int>(pir::Type::Kind::I32);
  if (S == "s64")
    return static_cast<int>(pir::Type::Kind::I64);
  if (S == "f32")
    return static_cast<int>(pir::Type::Kind::F32);
  if (S == "f64")
    return static_cast<int>(pir::Type::Kind::F64);
  if (S == "u64")
    return static_cast<int>(pir::Type::Kind::Ptr);
  return -1;
}

void appendPiece(std::string &S, std::string_view Text) { S += Text; }

template <std::integral Int> void appendPiece(std::string &S, Int V) {
  char Buf[24];
  S.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends text pieces as-is and integers in decimal.
template <typename... Pieces>
void append(std::string &S, const Pieces &...P) {
  (appendPiece(S, P), ...);
}

void appendReg(std::string &S, Reg R) {
  if (R == NoReg)
    S += " _";
  else
    append(S, " %r", R);
}

/// Runs a C conversion (strtoul and friends) on a NUL-terminated copy of
/// \p Tok, on the stack unless the token is unusually long.
template <typename Conv> auto convert(std::string_view Tok, Conv C) {
  char Buf[64];
  if (Tok.size() >= sizeof(Buf))
    return C(std::string(Tok).c_str());
  std::memcpy(Buf, Tok.data(), Tok.size());
  Buf[Tok.size()] = '\0';
  return C(Buf);
}

unsigned long toULong(std::string_view Tok) {
  return convert(Tok,
                 [](const char *S) { return std::strtoul(S, nullptr, 10); });
}

/// Iterates the fields of a string split at \p Sep, empty ones included,
/// as split() would return them.
class Fields {
public:
  Fields(std::string_view S, char Sep) : Rest(S), Sep(Sep) {}

  bool next(std::string_view &Field) {
    if (Done)
      return false;
    size_t Pos = Rest.find(Sep);
    Field = Rest.substr(0, Pos);
    if (Pos == std::string_view::npos)
      Done = true;
    else
      Rest.remove_prefix(Pos + 1);
    return true;
  }

private:
  std::string_view Rest;
  char Sep;
  bool Done = false;
};

} // namespace

std::string proteus::printPtx(const MachineFunction &MF) {
  std::string S;
  S.reserve(256 + MF.Name.size() + 16 * MF.Params.size() +
            32 * MF.Blocks.size() + 64 * MF.totalInstructions());
  append(S, "//\n// ptx-sim module (generated)\n//\n",
         ".version 8.0\n.target sm_70\n.address_size 64\n\n",
         ".visible .entry ", MF.Name, "\n");
  if (MF.LaunchBoundsThreads)
    append(S, ".maxntid ", MF.LaunchBoundsThreads, ", 1, 1\n",
           ".minnctapersm ", MF.LaunchBoundsMinBlocks, "\n");
  append(S, ".reg ", MF.NumRegs, "\n.localbytes ", MF.LocalBytes,
         "\n.params");
  for (const MachineParam &P : MF.Params)
    append(S, " ", typeTagName(P.TypeKind), ":%r", P.ArgReg);
  S += "\n";
  for (const Relocation &R : MF.Relocs)
    append(S, ".reloc ", R.Block, " ", R.InstrIndex, " ", R.Symbol, "\n");
  S += "{\n";
  for (size_t B = 0; B != MF.Blocks.size(); ++B) {
    append(S, "$L", B, ": // ", MF.Blocks[B].Name, "\n");
    for (const MachineInstr &MI : MF.Blocks[B].Instrs) {
      append(S, "  ", mopName(MI.Op), ".", typeTagName(MI.TypeTag), ".",
             MI.Aux, MI.Uniform ? ".u" : ".d");
      appendReg(S, MI.Dst);
      appendReg(S, MI.Src1);
      appendReg(S, MI.Src2);
      appendReg(S, MI.Src3);
      append(S, " ", MI.Imm, " ", MI.Imm2, ";\n");
    }
  }
  S += "}\n";
  return S;
}

PtxAssembleResult proteus::assemblePtx(const std::string &Text) {
  PtxAssembleResult Out;
  MachineFunction &MF = Out.MF;
  auto fail = [&](const std::string &Msg) {
    Out.Ok = false;
    Out.Error = Msg;
    return Out;
  };

  // Build the mnemonic lookup once.
  static const auto &OpByName = *[] {
    auto *M = new std::unordered_map<std::string_view, MOp>();
    for (int O = 0; O <= static_cast<int>(MOp::Alloca); ++O)
      (*M)[mopName(static_cast<MOp>(O))] = static_cast<MOp>(O);
    return M;
  }();

  int CurBlock = -1;
  Fields Lines(Text, '\n');
  std::string_view Line;
  while (Lines.next(Line)) {
    std::string_view L = trim(Line);
    if (L.empty() || startsWith(L, "//") || L == "{" || L == "}")
      continue;
    if (startsWith(L, ".visible .entry ")) {
      MF.Name = std::string(trim(L.substr(16)));
      continue;
    }
    if (startsWith(L, ".maxntid ")) {
      MF.LaunchBoundsThreads = static_cast<uint32_t>(toULong(L.substr(9)));
      continue;
    }
    if (startsWith(L, ".minnctapersm ")) {
      MF.LaunchBoundsMinBlocks = static_cast<uint32_t>(toULong(L.substr(14)));
      continue;
    }
    if (startsWith(L, ".reg ")) {
      MF.NumRegs = static_cast<uint32_t>(toULong(L.substr(5)));
      continue;
    }
    if (startsWith(L, ".localbytes ")) {
      MF.LocalBytes = static_cast<uint32_t>(toULong(L.substr(12)));
      continue;
    }
    if (startsWith(L, ".params")) {
      Fields Params(L.substr(7), ' ');
      std::string_view Tok;
      while (Params.next(Tok)) {
        Tok = trim(Tok);
        if (Tok.empty())
          continue;
        size_t Colon = Tok.find(':');
        if (Colon == std::string_view::npos || Tok.size() < Colon + 4 ||
            Tok[Colon + 1] != '%' || Tok[Colon + 2] != 'r')
          return fail("bad .params entry");
        int TT = typeTagFromName(Tok.substr(0, Colon));
        if (TT < 0)
          return fail("bad parameter type");
        MachineParam P;
        P.TypeKind = static_cast<pir::Type::Kind>(TT);
        P.ArgReg = static_cast<Reg>(toULong(Tok.substr(Colon + 3)));
        MF.Params.push_back(P);
      }
      continue;
    }
    if (startsWith(L, ".reloc ")) {
      Fields Parts(trim(L.substr(7)), ' ');
      std::string_view Part[3], Extra;
      if (!Parts.next(Part[0]) || !Parts.next(Part[1]) ||
          !Parts.next(Part[2]) || Parts.next(Extra))
        return fail("bad .reloc");
      Relocation R;
      R.Block = static_cast<uint32_t>(toULong(Part[0]));
      R.InstrIndex = static_cast<uint32_t>(toULong(Part[1]));
      R.Symbol = std::string(Part[2]);
      MF.Relocs.push_back(std::move(R));
      continue;
    }
    if (startsWith(L, ".version") || startsWith(L, ".target") ||
        startsWith(L, ".address_size"))
      continue;
    if (startsWith(L, "$L")) {
      // Label: "$L<N>: // name"
      size_t Colon = L.find(':');
      if (Colon == std::string_view::npos)
        return fail("bad label");
      CurBlock = static_cast<int>(toULong(L.substr(2, Colon - 2)));
      if (CurBlock != static_cast<int>(MF.Blocks.size()))
        return fail("labels out of order");
      MachineBlock MB;
      size_t NamePos = L.find("// ");
      if (NamePos != std::string_view::npos)
        MB.Name = std::string(L.substr(NamePos + 3));
      MF.Blocks.push_back(std::move(MB));
      continue;
    }
    // Instruction line: "<mop>.<type>.<aux>.<u|d> %rD %r1 %r2 %r3 imm imm2;"
    if (CurBlock < 0)
      return fail("instruction before first label");
    std::string_view Body = L;
    if (!Body.empty() && Body.back() == ';')
      Body.remove_suffix(1);
    std::string_view Tokens[7];
    size_t NumTokens = 0;
    Fields Words(Body, ' ');
    std::string_view T;
    while (Words.next(T)) {
      T = trim(T);
      if (T.empty())
        continue;
      if (NumTokens == 7) {
        NumTokens = 8;
        break;
      }
      Tokens[NumTokens++] = T;
    }
    if (NumTokens != 7)
      return fail("bad instruction arity: " + std::string(L));
    // The mnemonic itself may contain dots (e.g. ld.global): the trailing
    // three components are type, aux, uniformity.
    std::string_view Op = Tokens[0];
    size_t UniDot = Op.rfind('.');
    size_t AuxDot = UniDot == std::string_view::npos || UniDot == 0
                        ? std::string_view::npos
                        : Op.rfind('.', UniDot - 1);
    size_t TypeDot = AuxDot == std::string_view::npos || AuxDot == 0
                         ? std::string_view::npos
                         : Op.rfind('.', AuxDot - 1);
    if (TypeDot == std::string_view::npos)
      return fail("bad opcode format");
    std::string_view Mnemonic = Op.substr(0, TypeDot);
    auto OpIt = OpByName.find(Mnemonic);
    if (OpIt == OpByName.end())
      return fail("unknown mnemonic '" + std::string(Mnemonic) + "'");
    int TT = typeTagFromName(Op.substr(TypeDot + 1, AuxDot - TypeDot - 1));
    if (TT < 0)
      return fail("bad type suffix");
    MachineInstr MI;
    MI.Op = OpIt->second;
    MI.TypeTag = static_cast<pir::Type::Kind>(TT);
    MI.Aux = static_cast<uint16_t>(
        toULong(Op.substr(AuxDot + 1, UniDot - AuxDot - 1)));
    MI.Uniform = Op.substr(UniDot + 1) == "u";
    auto parseReg = [&](std::string_view T, Reg &R) {
      if (T == "_") {
        R = NoReg;
        return true;
      }
      if (T.size() < 3 || T[0] != '%' || T[1] != 'r')
        return false;
      R = static_cast<Reg>(toULong(T.substr(2)));
      return true;
    };
    if (!parseReg(Tokens[1], MI.Dst) || !parseReg(Tokens[2], MI.Src1) ||
        !parseReg(Tokens[3], MI.Src2) || !parseReg(Tokens[4], MI.Src3))
      return fail("bad register token");
    MI.Imm = convert(Tokens[5], [](const char *S) {
      return std::strtoll(S, nullptr, 10);
    });
    MI.Imm2 = static_cast<int32_t>(convert(
        Tokens[6], [](const char *S) { return std::strtol(S, nullptr, 10); }));
    MF.Blocks[static_cast<size_t>(CurBlock)].Instrs.push_back(MI);
  }
  if (MF.Name.empty() || MF.Blocks.empty())
    return fail("missing entry or body");
  Out.Ok = true;
  return Out;
}
