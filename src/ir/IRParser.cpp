//===- IRParser.cpp - PIR textual parser ---------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Line-oriented recursive-descent parser for PIR assembly. Each instruction
// occupies one line; block labels are lines of the form "name:". Forward
// references are permitted for blocks (pre-scanned per function) and for phi
// incoming values (resolved through fixups after the body is parsed).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <optional>

using namespace pir;
using namespace proteus;

namespace {

/// Cursor over one source line.
class LineLexer {
public:
  explicit LineLexer(std::string_view Line) : S(Line) {}

  void skipSpace() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= S.size() || S[Pos] == ';'; // ';' starts a comment
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    skipSpace();
    size_t Save = Pos;
    std::string Ident = lexIdent();
    if (Ident == W)
      return true;
    Pos = Save;
    return false;
  }

  /// Identifier: [A-Za-z_][A-Za-z0-9_.]*
  std::string lexIdent() {
    skipSpace();
    size_t Start = Pos;
    if (Pos < S.size() &&
        (std::isalpha(static_cast<unsigned char>(S[Pos])) || S[Pos] == '_')) {
      ++Pos;
      while (Pos < S.size() &&
             (std::isalnum(static_cast<unsigned char>(S[Pos])) ||
              S[Pos] == '_' || S[Pos] == '.'))
        ++Pos;
    }
    return std::string(S.substr(Start, Pos - Start));
  }

  /// Number: optional sign, digits, optional fraction/exponent/hex.
  std::optional<std::string> lexNumber() {
    skipSpace();
    size_t Start = Pos;
    size_t P = Pos;
    if (P < S.size() && (S[P] == '-' || S[P] == '+'))
      ++P;
    if (P >= S.size() || (!std::isdigit(static_cast<unsigned char>(S[P]))))
      return std::nullopt;
    while (P < S.size() &&
           (std::isalnum(static_cast<unsigned char>(S[P])) || S[P] == '.' ||
            S[P] == '+' || S[P] == '-')) {
      // Stop '+'/'-' unless preceded by exponent 'e'/'E'.
      if ((S[P] == '+' || S[P] == '-') &&
          !(S[P - 1] == 'e' || S[P - 1] == 'E'))
        break;
      ++P;
    }
    Pos = P;
    return std::string(S.substr(Start, P - Start));
  }

  std::optional<std::string> lexQuoted() {
    skipSpace();
    if (Pos >= S.size() || S[Pos] != '"')
      return std::nullopt;
    size_t Start = ++Pos;
    while (Pos < S.size() && S[Pos] != '"')
      ++Pos;
    if (Pos >= S.size())
      return std::nullopt;
    std::string Out(S.substr(Start, Pos - Start));
    ++Pos;
    return Out;
  }

  std::string rest() {
    skipSpace();
    return std::string(S.substr(Pos));
  }

private:
  std::string_view S;
  size_t Pos = 0;
};

struct PhiFixup {
  PhiInst *Phi;
  size_t OperandIndex; // index of the placeholder value operand
  std::string Name;    // %-less local name to resolve
};

class Parser {
public:
  Parser(Context &Ctx, const std::string &Text) : Ctx(Ctx) {
    for (std::string_view L : split(Text, '\n'))
      Lines.push_back(std::string(L));
  }

  ParseResult run() {
    if (!parseModuleHeader())
      return fail();
    while (CurLine < Lines.size()) {
      std::string_view L = trim(Lines[CurLine]);
      if (L.empty() || L[0] == ';') {
        ++CurLine;
        continue;
      }
      if (startsWith(L, "global ")) {
        if (!parseGlobal())
          return fail();
        continue;
      }
      if (startsWith(L, "kernel ") || startsWith(L, "device ")) {
        if (!parseFunction())
          return fail();
        continue;
      }
      return error("expected 'global', 'kernel' or 'device'"), fail();
    }
    ParseResult R;
    R.M = std::move(M);
    return R;
  }

private:
  ParseResult fail() {
    ParseResult R;
    R.Error = Diag;
    return R;
  }

  void error(const std::string &Msg) {
    if (Diag.empty())
      Diag = "line " + std::to_string(CurLine + 1) + ": " + Msg;
  }

  bool parseModuleHeader() {
    // Skip leading blank lines.
    while (CurLine < Lines.size() && trim(Lines[CurLine]).empty())
      ++CurLine;
    if (CurLine >= Lines.size())
      return error("empty input"), false;
    LineLexer Lex(Lines[CurLine]);
    if (!Lex.consumeWord("module"))
      return error("expected 'module \"name\"'"), false;
    auto Name = Lex.lexQuoted();
    if (!Name)
      return error("expected module name string"), false;
    M = std::make_unique<Module>(Ctx, *Name);
    ++CurLine;
    return true;
  }

  Type *parseTypeName(const std::string &Name) {
    if (Name == "void")
      return Ctx.getVoidTy();
    if (Name == "i1")
      return Ctx.getI1Ty();
    if (Name == "i32")
      return Ctx.getI32Ty();
    if (Name == "i64")
      return Ctx.getI64Ty();
    if (Name == "f32")
      return Ctx.getF32Ty();
    if (Name == "f64")
      return Ctx.getF64Ty();
    if (Name == "ptr")
      return Ctx.getPtrTy();
    return nullptr;
  }

  bool parseGlobal() {
    LineLexer Lex(Lines[CurLine]);
    Lex.consumeWord("global");
    if (!Lex.consume('@'))
      return error("expected '@name' after 'global'"), false;
    std::string Name = Lex.lexIdent();
    if (!Lex.consume(':'))
      return error("expected ':' in global"), false;
    Type *ElemTy = parseTypeName(Lex.lexIdent());
    if (!ElemTy || ElemTy->isVoid())
      return error("bad global element type"), false;
    if (!Lex.consumeWord("x"))
      return error("expected 'x <count>' in global"), false;
    auto CountStr = Lex.lexNumber();
    if (!CountStr)
      return error("expected element count"), false;
    uint64_t Count = std::strtoull(CountStr->c_str(), nullptr, 10);
    if (!Lex.consume('='))
      return error("expected '=' in global"), false;
    std::vector<uint8_t> Init;
    if (Lex.consumeWord("hex")) {
      std::string Hex = Lex.lexIdent();
      if (Hex.empty()) {
        if (auto N = Lex.lexNumber())
          Hex = *N;
      }
      if (Hex.size() % 2 != 0)
        return error("odd hex initializer length"), false;
      for (size_t I = 0; I < Hex.size(); I += 2) {
        auto Nibble = [&](char C) -> int {
          if (C >= '0' && C <= '9')
            return C - '0';
          if (C >= 'a' && C <= 'f')
            return C - 'a' + 10;
          if (C >= 'A' && C <= 'F')
            return C - 'A' + 10;
          return -1;
        };
        int Hi = Nibble(Hex[I]), Lo = Nibble(Hex[I + 1]);
        if (Hi < 0 || Lo < 0)
          return error("bad hex digit in initializer"), false;
        Init.push_back(static_cast<uint8_t>(Hi << 4 | Lo));
      }
      if (Init.size() != Count * ElemTy->sizeInBytes())
        return error("initializer size mismatch"), false;
    } else if (!Lex.consumeWord("zeroinit")) {
      return error("expected 'zeroinit' or 'hex'"), false;
    }
    if (M->getGlobal(Name))
      return error("duplicate global @" + Name), false;
    M->createGlobal(Name, ElemTy, Count, std::move(Init));
    ++CurLine;
    return true;
  }

  bool parseFunction() {
    LineLexer Lex(Lines[CurLine]);
    FunctionKind FK =
        Lex.consumeWord("kernel") ? FunctionKind::Kernel : FunctionKind::Device;
    if (FK == FunctionKind::Device && !Lex.consumeWord("device"))
      return error("expected 'kernel' or 'device'"), false;
    if (!Lex.consume('@'))
      return error("expected '@name'"), false;
    std::string Name = Lex.lexIdent();
    if (!Lex.consume('('))
      return error("expected '(' after function name"), false;
    std::vector<Type *> ParamTypes;
    std::vector<std::string> ParamNames;
    if (!Lex.consume(')')) {
      for (;;) {
        if (!Lex.consume('%'))
          return error("expected '%arg' in parameter list"), false;
        ParamNames.push_back(Lex.lexIdent());
        if (!Lex.consume(':'))
          return error("expected ':' after parameter name"), false;
        Type *Ty = parseTypeName(Lex.lexIdent());
        if (!Ty || Ty->isVoid())
          return error("bad parameter type"), false;
        ParamTypes.push_back(Ty);
        if (Lex.consume(')'))
          break;
        if (!Lex.consume(','))
          return error("expected ',' or ')' in parameter list"), false;
      }
    }
    Type *RetTy = Ctx.getVoidTy();
    if (Lex.consume(':')) {
      RetTy = parseTypeName(Lex.lexIdent());
      if (!RetTy)
        return error("bad return type"), false;
    }
    bool AlwaysInline = false;
    std::optional<LaunchBounds> LB;
    std::optional<JitAnnotation> Ann;
    for (;;) {
      if (Lex.consumeWord("always_inline")) {
        AlwaysInline = true;
        continue;
      }
      if (Lex.consumeWord("launch_bounds")) {
        if (!Lex.consume('('))
          return error("expected '(' after launch_bounds"), false;
        auto A = Lex.lexNumber();
        if (!A || !Lex.consume(','))
          return error("bad launch_bounds"), false;
        auto B = Lex.lexNumber();
        if (!B || !Lex.consume(')'))
          return error("bad launch_bounds"), false;
        LB = LaunchBounds{
            static_cast<uint32_t>(std::strtoul(A->c_str(), nullptr, 10)),
            static_cast<uint32_t>(std::strtoul(B->c_str(), nullptr, 10))};
        continue;
      }
      if (Lex.consumeWord("annotate")) {
        if (!Lex.consume('('))
          return error("expected '(' after annotate"), false;
        auto Kind = Lex.lexQuoted();
        if (!Kind || *Kind != "jit")
          return error("only annotate(\"jit\", ...) is supported"), false;
        JitAnnotation A;
        while (Lex.consume(',')) {
          auto N = Lex.lexNumber();
          if (!N)
            return error("bad annotate index"), false;
          A.ArgIndices.push_back(
              static_cast<uint32_t>(std::strtoul(N->c_str(), nullptr, 10)));
        }
        if (!Lex.consume(')'))
          return error("expected ')' after annotate"), false;
        Ann = std::move(A);
        continue;
      }
      break;
    }
    if (M->getFunction(Name))
      return error("duplicate function @" + Name), false;
    Function *F = M->createFunction(Name, RetTy, ParamTypes, ParamNames, FK);
    F->setAlwaysInline(AlwaysInline);
    if (LB)
      F->setLaunchBounds(*LB);
    if (Ann)
      F->setJitAnnotation(std::move(*Ann));

    bool IsDeclaration = Lex.consume(';');
    bool HasBody = !IsDeclaration && Lex.consume('{');
    if (!IsDeclaration && !HasBody)
      return error("expected '{' or ';' after function header"), false;
    ++CurLine;
    if (IsDeclaration)
      return true;
    return parseBody(F);
  }

  bool parseBody(Function *F) {
    Values.clear();
    Blocks.clear();
    Fixups.clear();
    for (const auto &A : F->args()) {
      if (Values.count(A->getName()))
        return error("duplicate argument name %" + A->getName()), false;
      Values[A->getName()] = A.get();
    }

    // Pre-scan labels so blocks exist in definition order.
    size_t End = CurLine;
    for (; End < Lines.size(); ++End) {
      std::string_view L = trim(Lines[End]);
      if (L == "}")
        break;
      if (!L.empty() && L.back() == ':' &&
          L.find_first_of(" \t,(") == std::string_view::npos) {
        std::string Label(L.substr(0, L.size() - 1));
        if (Blocks.count(Label))
          return error("duplicate block label " + Label), false;
        Blocks[Label] = F->createBlock(Label, Ctx.getVoidTy());
      }
    }
    if (End >= Lines.size())
      return error("missing '}' at end of function"), false;

    IRBuilder B(Ctx);
    BasicBlock *Cur = nullptr;
    for (; CurLine < End; ++CurLine) {
      std::string_view L = trim(Lines[CurLine]);
      if (L.empty() || L[0] == ';')
        continue;
      if (L.back() == ':' &&
          L.find_first_of(" \t,(") == std::string_view::npos) {
        Cur = Blocks.at(std::string(L.substr(0, L.size() - 1)));
        B.setInsertPoint(Cur);
        continue;
      }
      if (!Cur)
        return error("instruction before first block label"), false;
      if (!parseInstruction(B, F, std::string(L)))
        return false;
    }
    CurLine = End + 1;

    // Resolve phi forward references.
    for (const PhiFixup &Fx : Fixups) {
      auto It = Values.find(Fx.Name);
      if (It == Values.end())
        return error("unresolved phi operand %" + Fx.Name), false;
      Fx.Phi->setOperand(Fx.OperandIndex, It->second);
    }
    return true;
  }

  /// Parses an operand reference: %name | @name | <type> <literal>.
  /// Returns null and sets the diagnostic on failure. When \p AllowForward
  /// is a phi, unresolved %names produce a placeholder and a fixup.
  Value *parseOperand(LineLexer &Lex, PhiInst *AllowForward = nullptr,
                      Type *ForwardTy = nullptr) {
    if (Lex.consume('%')) {
      std::string Name = Lex.lexIdent();
      auto It = Values.find(Name);
      if (It != Values.end())
        return It->second;
      auto BIt = Blocks.find(Name);
      if (BIt != Blocks.end())
        return BIt->second;
      if (AllowForward) {
        Fixups.push_back(
            PhiFixup{AllowForward, AllowForward->getNumOperands(), Name});
        return Ctx.getZeroValue(ForwardTy);
      }
      error("unknown value %" + Name);
      return nullptr;
    }
    if (Lex.consume('@')) {
      std::string Name = Lex.lexIdent();
      if (GlobalVariable *G = M->getGlobal(Name))
        return G;
      if (Function *F = M->getFunction(Name))
        return F;
      error("unknown global @" + Name);
      return nullptr;
    }
    std::string TyName = Lex.lexIdent();
    Type *Ty = parseTypeName(TyName);
    if (!Ty) {
      error("expected operand, got '" + TyName + "'");
      return nullptr;
    }
    if (Ty->isPointer()) {
      if (Lex.consumeWord("null"))
        return Ctx.getNullPtr();
      auto N = Lex.lexNumber();
      if (!N) {
        error("expected pointer literal");
        return nullptr;
      }
      return Ctx.getConstantPtr(std::strtoull(N->c_str(), nullptr, 0));
    }
    auto N = Lex.lexNumber();
    if (!N) {
      error("expected numeric literal");
      return nullptr;
    }
    if (Ty->isInteger())
      return Ctx.getConstantInt(
          Ty, static_cast<uint64_t>(std::strtoll(N->c_str(), nullptr, 0)));
    return Ctx.getConstantFP(Ty, std::strtod(N->c_str(), nullptr));
  }

  bool defineValue(const std::string &Name, Value *V) {
    if (Name.empty())
      return error("instruction result requires a name"), false;
    if (Values.count(Name))
      return error("duplicate value name %" + Name), false;
    Values[Name] = V;
    V->setName(Name);
    return true;
  }

  bool parseInstruction(IRBuilder &B, Function *F, const std::string &Line);

  Context &Ctx;
  std::unique_ptr<Module> M;
  std::vector<std::string> Lines;
  size_t CurLine = 0;
  std::string Diag;

  std::map<std::string, Value *> Values;
  std::map<std::string, BasicBlock *> Blocks;
  std::vector<PhiFixup> Fixups;
};

bool Parser::parseInstruction(IRBuilder &B, Function *F,
                              const std::string &Line) {
  LineLexer Lex(Line);
  std::string ResultName;
  {
    LineLexer Probe(Line);
    if (Probe.consume('%')) {
      std::string N = Probe.lexIdent();
      if (Probe.consume('=')) {
        ResultName = N;
        Lex = Probe;
      }
    }
  }

  std::string Op = Lex.lexIdent();
  if (Op.empty())
    return error("expected instruction mnemonic"), false;

  auto finish = [&](Value *V) -> bool {
    if (!V)
      return false;
    if (!ResultName.empty())
      return defineValue(ResultName, V);
    return true;
  };

  // GPU geometry reads: "thread_idx.x" etc. lex as one ident (dot allowed).
  auto geomDim = [&](std::string_view Suffix) -> int {
    if (Suffix == "x")
      return 0;
    if (Suffix == "y")
      return 1;
    if (Suffix == "z")
      return 2;
    return -1;
  };
  size_t Dot = Op.find('.');
  if (Dot != std::string::npos) {
    std::string Base = Op.substr(0, Dot);
    int Dim = geomDim(Op.substr(Dot + 1));
    if (Dim >= 0) {
      if (Base == "thread_idx")
        return finish(B.createThreadIdx(static_cast<uint8_t>(Dim)));
      if (Base == "block_idx")
        return finish(B.createBlockIdx(static_cast<uint8_t>(Dim)));
      if (Base == "block_dim")
        return finish(B.createBlockDim(static_cast<uint8_t>(Dim)));
      if (Base == "grid_dim")
        return finish(B.createGridDim(static_cast<uint8_t>(Dim)));
    }
  }

  static const std::map<std::string, ValueKind> BinaryOps = {
      {"add", ValueKind::Add},     {"sub", ValueKind::Sub},
      {"mul", ValueKind::Mul},     {"sdiv", ValueKind::SDiv},
      {"udiv", ValueKind::UDiv},   {"srem", ValueKind::SRem},
      {"urem", ValueKind::URem},   {"and", ValueKind::And},
      {"or", ValueKind::Or},       {"xor", ValueKind::Xor},
      {"shl", ValueKind::Shl},     {"lshr", ValueKind::LShr},
      {"ashr", ValueKind::AShr},   {"fadd", ValueKind::FAdd},
      {"fsub", ValueKind::FSub},   {"fmul", ValueKind::FMul},
      {"fdiv", ValueKind::FDiv},   {"pow", ValueKind::Pow},
      {"fmin", ValueKind::FMin},   {"fmax", ValueKind::FMax},
      {"smin", ValueKind::SMin},   {"smax", ValueKind::SMax}};
  if (auto It = BinaryOps.find(Op); It != BinaryOps.end()) {
    Value *L = parseOperand(Lex);
    if (!L || !Lex.consume(','))
      return error("bad binary operands"), false;
    Value *R = parseOperand(Lex);
    if (!R)
      return false;
    if (L->getType() != R->getType())
      return error("binary operand type mismatch"), false;
    return finish(B.createBinary(It->second, L, R));
  }

  static const std::map<std::string, ValueKind> UnaryOps = {
      {"fneg", ValueKind::FNeg}, {"sqrt", ValueKind::Sqrt},
      {"exp", ValueKind::Exp},   {"log", ValueKind::Log},
      {"sin", ValueKind::Sin},   {"cos", ValueKind::Cos},
      {"fabs", ValueKind::Fabs}, {"floor", ValueKind::Floor}};
  if (auto It = UnaryOps.find(Op); It != UnaryOps.end()) {
    Value *V = parseOperand(Lex);
    if (!V)
      return false;
    return finish(B.createUnary(It->second, V));
  }

  static const std::map<std::string, ValueKind> CastOps = {
      {"trunc", ValueKind::Trunc},     {"zext", ValueKind::ZExt},
      {"sext", ValueKind::SExt},       {"fpext", ValueKind::FPExt},
      {"fptrunc", ValueKind::FPTrunc}, {"sitofp", ValueKind::SIToFP},
      {"uitofp", ValueKind::UIToFP},   {"fptosi", ValueKind::FPToSI},
      {"inttoptr", ValueKind::IntToPtr}, {"ptrtoint", ValueKind::PtrToInt}};
  if (auto It = CastOps.find(Op); It != CastOps.end()) {
    Value *V = parseOperand(Lex);
    if (!V || !Lex.consumeWord("to"))
      return error("bad cast syntax"), false;
    Type *Ty = parseTypeName(Lex.lexIdent());
    if (!Ty)
      return error("bad cast destination type"), false;
    return finish(B.createCast(It->second, V, Ty));
  }

  if (Op == "icmp") {
    static const std::map<std::string, ICmpPred> Preds = {
        {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},
        {"slt", ICmpPred::SLT}, {"sle", ICmpPred::SLE},
        {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
        {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE},
        {"ugt", ICmpPred::UGT}, {"uge", ICmpPred::UGE}};
    auto It = Preds.find(Lex.lexIdent());
    if (It == Preds.end())
      return error("bad icmp predicate"), false;
    Value *L = parseOperand(Lex);
    if (!L || !Lex.consume(','))
      return error("bad icmp operands"), false;
    Value *R = parseOperand(Lex);
    if (!R)
      return false;
    if (L->getType() != R->getType())
      return error("icmp operand type mismatch"), false;
    return finish(B.createICmp(It->second, L, R));
  }

  if (Op == "fcmp") {
    static const std::map<std::string, FCmpPred> Preds = {
        {"oeq", FCmpPred::OEQ}, {"one", FCmpPred::ONE},
        {"olt", FCmpPred::OLT}, {"ole", FCmpPred::OLE},
        {"ogt", FCmpPred::OGT}, {"oge", FCmpPred::OGE}};
    auto It = Preds.find(Lex.lexIdent());
    if (It == Preds.end())
      return error("bad fcmp predicate"), false;
    Value *L = parseOperand(Lex);
    if (!L || !Lex.consume(','))
      return error("bad fcmp operands"), false;
    Value *R = parseOperand(Lex);
    if (!R)
      return false;
    if (L->getType() != R->getType())
      return error("fcmp operand type mismatch"), false;
    return finish(B.createFCmp(It->second, L, R));
  }

  if (Op == "select") {
    Value *C = parseOperand(Lex);
    if (!C || !Lex.consume(','))
      return error("bad select"), false;
    Value *T = parseOperand(Lex);
    if (!T || !Lex.consume(','))
      return error("bad select"), false;
    Value *Fv = parseOperand(Lex);
    if (!Fv)
      return false;
    if (!C->getType()->isI1() || T->getType() != Fv->getType())
      return error("select type mismatch"), false;
    return finish(B.createSelect(C, T, Fv));
  }

  if (Op == "alloca") {
    Type *Ty = parseTypeName(Lex.lexIdent());
    if (!Ty || !Lex.consumeWord("x"))
      return error("bad alloca"), false;
    auto N = Lex.lexNumber();
    if (!N)
      return error("bad alloca count"), false;
    return finish(B.createAlloca(
        Ty, static_cast<uint32_t>(std::strtoul(N->c_str(), nullptr, 10))));
  }

  if (Op == "load") {
    Type *Ty = parseTypeName(Lex.lexIdent());
    if (!Ty || !Lex.consume(','))
      return error("bad load"), false;
    Value *P = parseOperand(Lex);
    if (!P)
      return false;
    if (!P->getType()->isPointer())
      return error("load pointer operand must be ptr"), false;
    return finish(B.createLoad(Ty, P));
  }

  if (Op == "store") {
    Value *V = parseOperand(Lex);
    if (!V || !Lex.consume(','))
      return error("bad store"), false;
    Value *P = parseOperand(Lex);
    if (!P)
      return false;
    if (!P->getType()->isPointer())
      return error("store pointer operand must be ptr"), false;
    B.createStore(V, P);
    return true;
  }

  if (Op == "ptradd") {
    Value *Base = parseOperand(Lex);
    if (!Base || !Lex.consume(','))
      return error("bad ptradd"), false;
    Value *Idx = parseOperand(Lex);
    if (!Idx || !Lex.consume(','))
      return error("bad ptradd"), false;
    auto Sz = Lex.lexNumber();
    if (!Sz)
      return error("bad ptradd element size"), false;
    if (!Base->getType()->isPointer())
      return error("ptradd base must be ptr"), false;
    return finish(B.createPtrAdd(
        Base, Idx,
        static_cast<uint32_t>(std::strtoul(Sz->c_str(), nullptr, 10))));
  }

  if (Op == "atomicadd") {
    Value *P = parseOperand(Lex);
    if (!P || !Lex.consume(','))
      return error("bad atomicadd"), false;
    Value *V = parseOperand(Lex);
    if (!V)
      return false;
    if (!P->getType()->isPointer())
      return error("atomicadd pointer operand must be ptr"), false;
    return finish(B.createAtomicAdd(P, V));
  }

  if (Op == "barrier") {
    B.createBarrier();
    return true;
  }

  if (Op == "call") {
    if (!Lex.consume('@'))
      return error("expected callee after call"), false;
    std::string Callee = Lex.lexIdent();
    Function *CF = M->getFunction(Callee);
    if (!CF)
      return error("unknown callee @" + Callee), false;
    std::vector<Value *> Args;
    if (!Lex.consume('('))
      return error("expected '(' after callee"), false;
    if (!Lex.consume(')')) {
      for (;;) {
        Value *A = parseOperand(Lex);
        if (!A)
          return false;
        Args.push_back(A);
        if (Lex.consume(')'))
          break;
        if (!Lex.consume(','))
          return error("expected ',' or ')' in call"), false;
      }
    }
    if (Args.size() != CF->getNumArgs())
      return error("call arity mismatch for @" + Callee), false;
    for (size_t I = 0; I != Args.size(); ++I)
      if (Args[I]->getType() != CF->getArg(I)->getType())
        return error("call argument type mismatch for @" + Callee), false;
    return finish(B.createCall(CF, Args));
  }

  if (Op == "phi") {
    Type *Ty = parseTypeName(Lex.lexIdent());
    if (!Ty)
      return error("bad phi type"), false;
    PhiInst *Phi = B.createPhi(Ty);
    while (Lex.consume('[')) {
      Value *V = parseOperand(Lex, Phi, Ty);
      if (!V || !Lex.consume(','))
        return error("bad phi incoming"), false;
      if (!Lex.consume('%'))
        return error("phi incoming block must be %label"), false;
      std::string Label = Lex.lexIdent();
      auto BIt = Blocks.find(Label);
      if (BIt == Blocks.end())
        return error("unknown block label " + Label), false;
      if (!Lex.consume(']'))
        return error("expected ']' in phi"), false;
      if (V->getType() != Ty)
        return error("phi incoming type mismatch"), false;
      Phi->addIncoming(V, BIt->second);
      Lex.consume(',');
    }
    if (Phi->getNumIncoming() == 0)
      return error("phi requires at least one incoming"), false;
    return finish(Phi);
  }

  if (Op == "br") {
    if (!Lex.consume('%'))
      return error("expected %label after br"), false;
    auto BIt = Blocks.find(Lex.lexIdent());
    if (BIt == Blocks.end())
      return error("unknown branch target"), false;
    B.createBr(BIt->second);
    return true;
  }

  if (Op == "condbr") {
    Value *C = parseOperand(Lex);
    if (!C || !Lex.consume(','))
      return error("bad condbr"), false;
    if (!C->getType()->isI1())
      return error("condbr condition must be i1"), false;
    if (!Lex.consume('%'))
      return error("expected %label in condbr"), false;
    auto TIt = Blocks.find(Lex.lexIdent());
    if (TIt == Blocks.end() || !Lex.consume(','))
      return error("bad condbr targets"), false;
    if (!Lex.consume('%'))
      return error("expected %label in condbr"), false;
    auto FIt = Blocks.find(Lex.lexIdent());
    if (FIt == Blocks.end())
      return error("bad condbr targets"), false;
    B.createCondBr(C, TIt->second, FIt->second);
    return true;
  }

  if (Op == "ret") {
    if (Lex.atEnd()) {
      if (!F->getReturnType()->isVoid())
        return error("non-void function must return a value"), false;
      B.createRet();
      return true;
    }
    Value *V = parseOperand(Lex);
    if (!V)
      return false;
    if (V->getType() != F->getReturnType())
      return error("return type mismatch"), false;
    B.createRet(V);
    return true;
  }

  return error("unknown instruction '" + Op + "'"), false;
}

} // namespace

ParseResult pir::parseModule(Context &Ctx, const std::string &Text) {
  Parser P(Ctx, Text);
  return P.run();
}
