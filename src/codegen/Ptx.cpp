//===- Ptx.cpp - PTX-like textual assembly step ---------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Ptx.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string_view>

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

static_assert(sizeof(unsigned long) == 8 && sizeof(long) == 8,
              "number tokens are read with LP64 strtoul/strtol results");

/// A base-10 number token read as strtoul/strtoll/strtol read it, in place:
/// leading whitespace skipped, one optional sign, digits up to the first
/// non-digit; no digits reads as 0. Accumulates in unsigned arithmetic and
/// records magnitude overflow, which each conversion saturates its own way.
class Decimal {
public:
  explicit Decimal(std::string_view Tok) {
    size_t I = 0, N = Tok.size();
    while (I != N && isSpace(Tok[I]))
      ++I;
    if (I != N && (Tok[I] == '+' || Tok[I] == '-'))
      Negative = Tok[I++] == '-';
    for (; I != N; ++I) {
      unsigned Digit = static_cast<unsigned char>(Tok[I]) - unsigned('0');
      if (Digit > 9)
        break;
      if (Magnitude > (UINT64_MAX - Digit) / 10)
        Overflow = true;
      else
        Magnitude = Magnitude * 10 + Digit;
    }
  }

  /// strtoul: ULONG_MAX on overflow, else the magnitude, negated modulo
  /// 2^64 after a '-'.
  uint64_t toUnsigned() const {
    if (Overflow)
      return UINT64_MAX;
    return Negative ? 0 - Magnitude : Magnitude;
  }

  /// strtoll (and LP64 strtol): saturates to LLONG_MAX / LLONG_MIN.
  int64_t toSigned() const {
    constexpr uint64_t MinMagnitude = uint64_t(1) << 63;
    if (!Negative)
      return Overflow || Magnitude > uint64_t(INT64_MAX)
                 ? INT64_MAX
                 : static_cast<int64_t>(Magnitude);
    return Overflow || Magnitude > MinMagnitude
               ? INT64_MIN
               : static_cast<int64_t>(0 - Magnitude);
  }

private:
  uint64_t Magnitude = 0;
  bool Negative = false;
  bool Overflow = false;
};

uint64_t toULong(std::string_view Tok) { return Decimal(Tok).toUnsigned(); }

/// The machine opcode whose mopName() is \p S, or -1. No two mnemonics
/// share their length and first and last characters, so those index a
/// table that names the one candidate, and one compare confirms it.
int mopFromName(std::string_view S) {
  constexpr size_t MaxLen = 15;
  auto slot = [](std::string_view N) {
    return (N.size() * 32 + (N.front() & 31u)) * 32 + (N.back() & 31u);
  };
  static const auto Table = [&] {
    std::array<int8_t, (MaxLen + 1) * 32 * 32> T;
    T.fill(-1);
    for (int O = 0; O <= static_cast<int>(MOp::Alloca); ++O) {
      int8_t &Slot = T[slot(mopName(static_cast<MOp>(O)))];
      assert(Slot < 0 && "two mnemonics share a table slot");
      Slot = static_cast<int8_t>(O);
    }
    return T;
  }();
  if (S.empty() || S.size() > MaxLen)
    return -1;
  int Cand = Table[slot(S)];
  return Cand >= 0 && S == mopName(static_cast<MOp>(Cand)) ? Cand : -1;
}

/// Writes text through a cursor into a buffer sized to an upper bound.
class TextCursor {
public:
  explicit TextCursor(char *P) : P(P) {}

  TextCursor &operator<<(std::string_view Text) {
    std::memcpy(P, Text.data(), Text.size());
    P += Text.size();
    return *this;
  }
  TextCursor &operator<<(char C) {
    *P++ = C;
    return *this;
  }
  template <std::integral Int> TextCursor &operator<<(Int V) {
    P = std::to_chars(P, P + 24, V).ptr;
    return *this;
  }
  TextCursor &reg(Reg R) {
    if (R == NoReg)
      return *this << " _";
    return *this << " %r" << R;
  }

  char *P;
};

/// Upper bounds on the printed size of one instruction (mnemonic, type,
/// aux, four registers, two immediates), one label or relocation line
/// less its name, and one parameter.
constexpr size_t MaxInstrChars = 128;
constexpr size_t MaxLabelChars = 32;
constexpr size_t MaxParamChars = 24;

/// The first byte equal to \p C in [P, End), or End. While eight bytes
/// from P lie before \p Readable (the end of the whole text) it tests a
/// word at a time, so the scan branches once per word instead of once per
/// byte; a byte-wise tail finishes.
const char *findByte(const char *P, const char *End, const char *Readable,
                     char C) {
  static_assert(std::endian::native == std::endian::little,
                "the first match is the lowest set bit");
  constexpr uint64_t Ones = 0x0101010101010101ULL;
  while (P < End) {
    if (Readable - P < 8) {
      while (P != End && *P != C)
        ++P;
      return P;
    }
    uint64_t W;
    std::memcpy(&W, P, 8);
    W ^= Ones * static_cast<uint8_t>(C); // matching bytes become zero
    if (uint64_t Zero = (W - Ones) & ~W & (Ones << 7))
      return std::min(P + __builtin_ctzll(Zero) / 8, End);
    P += 8;
  }
  return End;
}

/// Calls \p F on each space-separated field of \p S, trimmed of
/// whitespace, skipping empty ones; stops early, returning false, when \p F
/// does. A field starts at the first non-whitespace character and runs to
/// the next space, so other whitespace inside a field is kept. \p S lies
/// in a text that ends at \p Readable.
template <typename Fn>
bool forEachField(std::string_view S, const char *Readable, Fn F) {
  const char *P = S.data(), *End = P + S.size();
  for (;;) {
    while (P != End && isSpace(*P))
      ++P;
    if (P == End)
      return true;
    const char *Begin = P;
    P = findByte(P, End, Readable, ' ');
    const char *Last = P;
    while (isSpace(Last[-1]))
      --Last;
    if (!F(std::string_view(Begin, static_cast<size_t>(Last - Begin))))
      return false;
  }
}

} // namespace

void proteus::printPtx(const MachineFunction &MF, std::string &Out) {
  size_t Bound = 256 + MF.Name.size() + MaxParamChars * MF.Params.size() +
                 MaxInstrChars * MF.totalInstructions();
  for (const Relocation &R : MF.Relocs)
    Bound += MaxLabelChars + R.Symbol.size();
  for (const MachineBlock &MB : MF.Blocks)
    Bound += MaxLabelChars + MB.Name.size();
  Out.resize(Bound);
  TextCursor S(Out.data());
  S << "//\n// ptx-sim module (generated)\n//\n"
    << ".version 8.0\n.target sm_70\n.address_size 64\n\n"
    << ".visible .entry " << MF.Name << '\n';
  if (MF.LaunchBoundsThreads)
    S << ".maxntid " << MF.LaunchBoundsThreads << ", 1, 1\n"
      << ".minnctapersm " << MF.LaunchBoundsMinBlocks << '\n';
  S << ".reg " << MF.NumRegs << "\n.localbytes " << MF.LocalBytes
    << "\n.params";
  for (const MachineParam &P : MF.Params)
    S << ' ' << typeTagName(P.TypeKind) << ":%r" << P.ArgReg;
  S << '\n';
  for (const Relocation &R : MF.Relocs)
    S << ".reloc " << R.Block << ' ' << R.InstrIndex << ' ' << R.Symbol
      << '\n';
  S << "{\n";
  for (size_t B = 0; B != MF.Blocks.size(); ++B) {
    S << "$L" << B << ": // " << MF.Blocks[B].Name << '\n';
    for (const MachineInstr &MI : MF.Blocks[B].Instrs) {
      S << "  " << mopName(MI.Op) << '.' << typeTagName(MI.TypeTag) << '.'
        << MI.Aux << (MI.Uniform ? ".u" : ".d");
      S.reg(MI.Dst).reg(MI.Src1).reg(MI.Src2).reg(MI.Src3);
      S << ' ' << MI.Imm << ' ' << MI.Imm2 << ";\n";
    }
  }
  S << "}\n";
  Out.resize(static_cast<size_t>(S.P - Out.data()));
}

std::string proteus::printPtx(const MachineFunction &MF) {
  std::string S;
  printPtx(MF, S);
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

  int CurBlock = -1;
  const char *TextEnd = Text.data() + Text.size();
  std::string_view Rest = Text;
  for (bool More = true; More;) {
    size_t EndOfLine = Rest.find('\n');
    More = EndOfLine != std::string_view::npos;
    std::string_view L = trim(Rest.substr(0, EndOfLine));
    if (More)
      Rest.remove_prefix(EndOfLine + 1);
    if (L.empty())
      continue;
    // Dispatch on the first character; a line that matches no comment,
    // brace, label or directive form is read as an instruction.
    switch (L[0]) {
    case '/':
      if (startsWith(L, "//"))
        continue;
      break;
    case '{':
    case '}':
      if (L.size() == 1)
        continue;
      break;
    case '$':
      if (startsWith(L, "$L")) {
        // Label: "$L<N>: // name"
        size_t Colon = L.find(':');
        if (Colon == std::string_view::npos)
          return fail("bad label");
        CurBlock = static_cast<int>(toULong(L.substr(2, Colon - 2)));
        if (CurBlock != static_cast<int>(MF.Blocks.size()))
          return fail("labels out of order");
        MachineBlock &MB = MF.Blocks.emplace_back();
        size_t NamePos = L.find("// ");
        if (NamePos != std::string_view::npos)
          MB.Name = L.substr(NamePos + 3);
        continue;
      }
      break;
    case '.':
      if (startsWith(L, ".visible .entry ")) {
        MF.Name = trim(L.substr(16));
        continue;
      }
      if (startsWith(L, ".maxntid ")) {
        MF.LaunchBoundsThreads = static_cast<uint32_t>(toULong(L.substr(9)));
        continue;
      }
      if (startsWith(L, ".minnctapersm ")) {
        MF.LaunchBoundsMinBlocks =
            static_cast<uint32_t>(toULong(L.substr(14)));
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
        const char *Err = nullptr;
        forEachField(L.substr(7), TextEnd, [&](std::string_view Tok) {
          size_t Colon = Tok.find(':');
          if (Colon == std::string_view::npos || Tok.size() < Colon + 4 ||
              Tok[Colon + 1] != '%' || Tok[Colon + 2] != 'r') {
            Err = "bad .params entry";
            return false;
          }
          int TT = typeTagFromName(Tok.substr(0, Colon));
          if (TT < 0) {
            Err = "bad parameter type";
            return false;
          }
          MachineParam P;
          P.TypeKind = static_cast<pir::Type::Kind>(TT);
          P.ArgReg = static_cast<Reg>(toULong(Tok.substr(Colon + 3)));
          MF.Params.push_back(P);
          return true;
        });
        if (Err)
          return fail(Err);
        continue;
      }
      if (startsWith(L, ".reloc ")) {
        // Exactly three fields, split at single spaces.
        std::string_view R = trim(L.substr(7));
        size_t S1 = R.find(' ');
        size_t S2 = S1 == std::string_view::npos ? S1 : R.find(' ', S1 + 1);
        if (S2 == std::string_view::npos ||
            R.find(' ', S2 + 1) != std::string_view::npos)
          return fail("bad .reloc");
        Relocation Rel;
        Rel.Block = static_cast<uint32_t>(toULong(R.substr(0, S1)));
        Rel.InstrIndex =
            static_cast<uint32_t>(toULong(R.substr(S1 + 1, S2 - S1 - 1)));
        Rel.Symbol = R.substr(S2 + 1);
        MF.Relocs.push_back(std::move(Rel));
        continue;
      }
      if (startsWith(L, ".version") || startsWith(L, ".target") ||
          startsWith(L, ".address_size"))
        continue;
      break;
    default:
      break;
    }
    // Instruction line: "<mop>.<type>.<aux>.<u|d> %rD %r1 %r2 %r3 imm imm2;"
    if (CurBlock < 0)
      return fail("instruction before first label");
    std::string_view Body = L;
    if (Body.back() == ';')
      Body.remove_suffix(1);
    std::string_view Tokens[7];
    size_t NumTokens = 0;
    forEachField(Body, TextEnd, [&](std::string_view T) {
      if (NumTokens == 7) {
        NumTokens = 8;
        return false;
      }
      Tokens[NumTokens++] = T;
      return true;
    });
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
    int MOpIdx = mopFromName(Mnemonic);
    if (MOpIdx < 0)
      return fail("unknown mnemonic '" + std::string(Mnemonic) + "'");
    int TT = typeTagFromName(Op.substr(TypeDot + 1, AuxDot - TypeDot - 1));
    if (TT < 0)
      return fail("bad type suffix");
    MachineInstr MI;
    MI.Op = static_cast<MOp>(MOpIdx);
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
    MI.Imm = Decimal(Tokens[5]).toSigned();
    MI.Imm2 = static_cast<int32_t>(Decimal(Tokens[6]).toSigned());
    MF.Blocks[static_cast<size_t>(CurBlock)].Instrs.push_back(MI);
  }
  if (MF.Name.empty() || MF.Blocks.empty())
    return fail("missing entry or body");
  Out.Ok = true;
  return Out;
}
