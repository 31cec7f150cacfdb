//===- Bitcode.cpp - PIR binary serialization -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Format (all little-endian):
//   magic "PIRB", version u32
//   module name
//   globals:   count, then {name, elem-kind u8, count u64, init bytes}
//   functions: count, then headers {name, ret u8, fnkind u8, flags,
//              launch-bounds?, annotation?, params}
//   bodies:    per function: block count (0 = declaration), block names,
//              instructions with operands encoded as tagged references.
//
// Operand tags: 0 = SSA slot (args then instructions, function-wide index),
// 1 = constant int, 2 = constant fp, 3 = constant ptr, 4 = global index,
// 5 = function index, 6 = block index.
//
//===----------------------------------------------------------------------===//

#include "bitcode/Bitcode.h"

#include "ir/Context.h"
#include "ir/Module.h"
#include "support/BinaryStream.h"
#include "support/Error.h"

#include <algorithm>
#include <unordered_map>

using namespace proteus;
using namespace pir;

namespace {

constexpr uint32_t Magic = 0x42524950; // "PIRB"
constexpr uint32_t Version = 1;

enum OperandTag : uint8_t {
  TagSlot = 0,
  TagConstInt = 1,
  TagConstFP = 2,
  TagConstPtr = 3,
  TagGlobal = 4,
  TagFunction = 5,
  TagBlock = 6,
};

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  explicit Writer(Module &M) : M(M) {}

  std::vector<uint8_t> run() {
    W.writeU32(Magic);
    W.writeU32(Version);
    W.writeString(M.getName());

    W.writeU32(static_cast<uint32_t>(M.globals().size()));
    uint32_t GIdx = 0;
    for (const auto &G : M.globals()) {
      GlobalIds[G.get()] = GIdx++;
      W.writeString(G->getName());
      W.writeU8(static_cast<uint8_t>(G->getElemType()->getKind()));
      W.writeU64(G->getNumElements());
      W.writeBytes(G->getInit());
    }

    W.writeU32(static_cast<uint32_t>(M.functions().size()));
    uint32_t FIdx = 0;
    for (const auto &F : M.functions()) {
      FunctionIds[F.get()] = FIdx++;
      writeFunctionHeader(*F);
    }
    for (const auto &F : M.functions())
      writeFunctionBody(*F);
    return W.take();
  }

private:
  void writeFunctionHeader(Function &F) {
    W.writeString(F.getName());
    W.writeU8(static_cast<uint8_t>(F.getReturnType()->getKind()));
    W.writeU8(static_cast<uint8_t>(F.getFunctionKind()));
    W.writeU8(F.isAlwaysInline() ? 1 : 0);
    if (const auto &LB = F.getLaunchBounds()) {
      W.writeU8(1);
      W.writeU32(LB->MaxThreadsPerBlock);
      W.writeU32(LB->MinBlocksPerProcessor);
    } else {
      W.writeU8(0);
    }
    if (const auto &Ann = F.getJitAnnotation()) {
      W.writeU8(1);
      W.writeU32(static_cast<uint32_t>(Ann->ArgIndices.size()));
      for (uint32_t I : Ann->ArgIndices)
        W.writeU32(I);
    } else {
      W.writeU8(0);
    }
    W.writeU32(static_cast<uint32_t>(F.getNumArgs()));
    for (const auto &A : F.args()) {
      W.writeU8(static_cast<uint8_t>(A->getType()->getKind()));
      W.writeString(A->getName());
    }
  }

  void writeOperand(Value *V) {
    if (auto *CI = dyn_cast<ConstantInt>(V)) {
      W.writeU8(TagConstInt);
      W.writeU8(static_cast<uint8_t>(CI->getType()->getKind()));
      W.writeU64(CI->getZExtValue());
      return;
    }
    if (auto *CF = dyn_cast<ConstantFP>(V)) {
      W.writeU8(TagConstFP);
      W.writeU8(static_cast<uint8_t>(CF->getType()->getKind()));
      W.writeF64(CF->getValue());
      return;
    }
    if (auto *CP = dyn_cast<ConstantPtr>(V)) {
      W.writeU8(TagConstPtr);
      W.writeU64(CP->getAddress());
      return;
    }
    if (auto *G = dyn_cast<GlobalVariable>(V)) {
      W.writeU8(TagGlobal);
      W.writeU32(GlobalIds.at(G));
      return;
    }
    if (auto *F = dyn_cast<Function>(V)) {
      W.writeU8(TagFunction);
      W.writeU32(FunctionIds.at(F));
      return;
    }
    W.writeU8(isa<BasicBlock>(V) ? TagBlock : TagSlot);
    uint32_t Index = LocalIndex.lookup(V);
    if (Index == NoIndex)
      reportFatalError("bitcode writer: operand outside the function");
    W.writeU32(Index);
  }

  void writeFunctionBody(Function &F) {
    if (F.isDeclaration()) {
      W.writeU32(0);
      return;
    }
    LocalIndex = ValueIdMap<uint32_t>(F, NoIndex);
    uint32_t Slot = 0;
    for (const auto &A : F.args())
      LocalIndex[A.get()] = Slot++;
    uint32_t BIdx = 0;
    std::vector<BasicBlock *> Blocks;
    for (BasicBlock &BB : F) {
      LocalIndex[&BB] = BIdx++;
      Blocks.push_back(&BB);
      for (Instruction &I : BB)
        if (!I.getType()->isVoid())
          LocalIndex[&I] = Slot++;
    }
    W.writeU32(static_cast<uint32_t>(Blocks.size()));
    for (BasicBlock *BB : Blocks)
      W.writeString(BB->getName());
    for (BasicBlock *BB : Blocks) {
      W.writeU32(static_cast<uint32_t>(BB->size()));
      for (Instruction &I : *BB)
        writeInstruction(I);
    }
  }

  void writeInstruction(Instruction &I) {
    W.writeU8(static_cast<uint8_t>(I.getKind()));
    W.writeString(I.getName());
    switch (I.getKind()) {
    case ValueKind::ICmp:
      W.writeU8(static_cast<uint8_t>(cast<ICmpInst>(I).getPredicate()));
      writeOperand(I.getOperand(0));
      writeOperand(I.getOperand(1));
      return;
    case ValueKind::FCmp:
      W.writeU8(static_cast<uint8_t>(cast<FCmpInst>(I).getPredicate()));
      writeOperand(I.getOperand(0));
      writeOperand(I.getOperand(1));
      return;
    case ValueKind::Alloca: {
      auto &A = cast<AllocaInst>(I);
      W.writeU8(static_cast<uint8_t>(A.getAllocatedType()->getKind()));
      W.writeU32(A.getNumElements());
      return;
    }
    case ValueKind::Load:
      W.writeU8(static_cast<uint8_t>(I.getType()->getKind()));
      writeOperand(I.getOperand(0));
      return;
    case ValueKind::PtrAdd: {
      auto &P = cast<PtrAddInst>(I);
      W.writeU32(P.getElemSize());
      writeOperand(P.getBase());
      writeOperand(P.getIndex());
      return;
    }
    case ValueKind::ThreadIdx:
    case ValueKind::BlockIdx:
    case ValueKind::BlockDim:
    case ValueKind::GridDim:
      W.writeU8(cast<GpuIndexInst>(I).getDim());
      return;
    case ValueKind::Barrier:
      return;
    case ValueKind::Phi:
      W.writeU8(static_cast<uint8_t>(I.getType()->getKind()));
      W.writeU32(static_cast<uint32_t>(I.getNumOperands()));
      for (size_t K = 0; K != I.getNumOperands(); ++K)
        writeOperand(I.getOperand(K));
      return;
    default:
      // Variable/fixed-arity kinds handled uniformly: optional cast result
      // type, then operand count + operands.
      if (isa<CastInst>(&I))
        W.writeU8(static_cast<uint8_t>(I.getType()->getKind()));
      W.writeU32(static_cast<uint32_t>(I.getNumOperands()));
      for (size_t K = 0; K != I.getNumOperands(); ++K)
        writeOperand(I.getOperand(K));
      return;
    }
  }

  Module &M;
  ByteWriter W;
  std::unordered_map<const GlobalVariable *, uint32_t> GlobalIds;
  std::unordered_map<const Function *, uint32_t> FunctionIds;
  /// Per function: the block index of each block and the SSA slot of each
  /// argument and non-void instruction.
  static constexpr uint32_t NoIndex = ~0u;
  ValueIdMap<uint32_t> LocalIndex;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(Context &Ctx, const std::vector<uint8_t> &Bytes)
      : Ctx(Ctx), R(Bytes) {}

  BitcodeReadResult run() {
    if (R.readU32() != Magic || R.readU32() != Version)
      return fail("bad bitcode magic/version");
    std::string Name = R.readString();
    M = std::make_unique<Module>(Ctx, Name);

    uint32_t NumGlobals = R.readU32();
    if (NumGlobals > 1u << 20)
      return fail("global count too large");
    for (uint32_t I = 0; I != NumGlobals && R.ok(); ++I) {
      std::string GName = R.readString();
      Type *ElemTy = readType();
      uint64_t Count = R.readU64();
      std::vector<uint8_t> Init = R.readBytes();
      if (!R.ok() || !ElemTy || ElemTy->isVoid())
        return fail("bad global record");
      if (Count > MaxBitcodeGlobalBytes / ElemTy->sizeInBytes())
        return fail("global too large");
      if (!Init.empty() && Init.size() != Count * ElemTy->sizeInBytes())
        return fail("global initializer size mismatch");
      if (M->getGlobal(GName))
        return fail("duplicate global");
      Globals.push_back(
          M->createGlobal(GName, ElemTy, Count, std::move(Init)));
    }

    uint32_t NumFunctions = R.readU32();
    if (NumFunctions > 1u << 20)
      return fail("function count too large");
    for (uint32_t I = 0; I != NumFunctions && R.ok(); ++I)
      if (!readFunctionHeader())
        return fail(Diag.empty() ? "bad function header" : Diag);
    for (uint32_t I = 0; I != NumFunctions && R.ok(); ++I)
      if (!readFunctionBody(Functions[I]))
        return fail(Diag.empty() ? "bad function body" : Diag);
    if (!R.ok())
      return fail("truncated bitcode");
    BitcodeReadResult Out;
    Out.M = std::move(M);
    return Out;
  }

private:
  struct Fixup {
    Instruction *I;
    size_t OperandIndex;
    uint32_t Slot;
  };

  BitcodeReadResult fail(const std::string &Msg) {
    BitcodeReadResult Out;
    Out.Error = Msg;
    return Out;
  }

  bool err(const std::string &Msg) {
    if (Diag.empty())
      Diag = Msg;
    return false;
  }

  Type *readType() {
    uint8_t K = R.readU8();
    if (K > static_cast<uint8_t>(Type::Kind::Ptr))
      return nullptr;
    return Ctx.getType(static_cast<Type::Kind>(K));
  }

  bool readFunctionHeader() {
    std::string Name = R.readString();
    Type *RetTy = readType();
    uint8_t FK = R.readU8();
    uint8_t Inline = R.readU8();
    if (!RetTy || FK > 1)
      return err("bad function header fields");
    std::optional<LaunchBounds> LB;
    if (R.readU8()) {
      LaunchBounds B;
      B.MaxThreadsPerBlock = R.readU32();
      B.MinBlocksPerProcessor = R.readU32();
      LB = B;
    }
    std::optional<JitAnnotation> Ann;
    if (R.readU8()) {
      JitAnnotation A;
      uint32_t N = R.readU32();
      if (N > 4096)
        return err("annotation list too long");
      for (uint32_t I = 0; I != N; ++I)
        A.ArgIndices.push_back(R.readU32());
      Ann = std::move(A);
    }
    uint32_t NumParams = R.readU32();
    if (NumParams > 65536)
      return err("parameter list too long");
    std::vector<Type *> ParamTypes;
    std::vector<std::string> ParamNames;
    for (uint32_t I = 0; I != NumParams && R.ok(); ++I) {
      Type *Ty = readType();
      if (!Ty || Ty->isVoid())
        return err("bad parameter type");
      ParamTypes.push_back(Ty);
      ParamNames.push_back(R.readString());
    }
    if (!R.ok() || M->getFunction(Name))
      return err("bad or duplicate function");
    Function *F = M->createFunction(Name, RetTy, ParamTypes, ParamNames,
                                    static_cast<FunctionKind>(FK));
    F->setAlwaysInline(Inline != 0);
    if (LB)
      F->setLaunchBounds(*LB);
    if (Ann)
      F->setJitAnnotation(std::move(*Ann));
    Functions.push_back(F);
    return true;
  }

  /// Reads an operand reference; for not-yet-defined SSA slots (phi forward
  /// references) returns a placeholder and records a fixup when \p FixupSink
  /// is provided.
  Value *readOperand(std::vector<Fixup> *FixupSink, Instruction *ForInst,
                     size_t OperandIndex, Type *PlaceholderTy) {
    uint8_t Tag = R.readU8();
    switch (Tag) {
    case TagSlot: {
      uint32_t Slot = R.readU32();
      if (Slot < Slots.size() && Slots[Slot])
        return Slots[Slot];
      if (FixupSink && PlaceholderTy) {
        FixupSink->push_back(Fixup{ForInst, OperandIndex, Slot});
        return Ctx.getZeroValue(PlaceholderTy);
      }
      err("operand slot out of range");
      return nullptr;
    }
    case TagConstInt: {
      Type *Ty = readType();
      uint64_t V = R.readU64();
      if (!Ty || !Ty->isInteger()) {
        err("bad integer constant");
        return nullptr;
      }
      return Ctx.getConstantInt(Ty, V);
    }
    case TagConstFP: {
      Type *Ty = readType();
      double V = R.readF64();
      if (!Ty || !Ty->isFloatingPoint()) {
        err("bad fp constant");
        return nullptr;
      }
      return Ctx.getConstantFP(Ty, V);
    }
    case TagConstPtr:
      return Ctx.getConstantPtr(R.readU64());
    case TagGlobal: {
      uint32_t I = R.readU32();
      if (I >= Globals.size()) {
        err("global index out of range");
        return nullptr;
      }
      return Globals[I];
    }
    case TagFunction: {
      uint32_t I = R.readU32();
      if (I >= Functions.size()) {
        err("function index out of range");
        return nullptr;
      }
      return Functions[I];
    }
    case TagBlock: {
      uint32_t I = R.readU32();
      if (I >= Blocks.size()) {
        err("block index out of range");
        return nullptr;
      }
      return Blocks[I];
    }
    default:
      err("bad operand tag");
      return nullptr;
    }
  }

  Value *readOperand() { return readOperand(nullptr, nullptr, 0, nullptr); }

  bool readFunctionBody(Function *F) {
    uint32_t NumBlocks = R.readU32();
    if (NumBlocks == 0)
      return R.ok();
    if (NumBlocks > 1u << 20)
      return err("block count too large");
    Slots.clear();
    Blocks.clear();
    for (const auto &A : F->args())
      Slots.push_back(A.get());
    for (uint32_t I = 0; I != NumBlocks && R.ok(); ++I)
      Blocks.push_back(F->createBlock(R.readString(), Ctx.getVoidTy()));

    std::vector<Fixup> Fixups;
    for (uint32_t B = 0; B != NumBlocks && R.ok(); ++B) {
      uint32_t NumInsts = R.readU32();
      if (NumInsts > 1u << 24)
        return err("instruction count too large");
      for (uint32_t K = 0; K != NumInsts && R.ok(); ++K)
        if (!readInstructionInto(Blocks[B], Fixups))
          return false;
    }
    for (const Fixup &Fx : Fixups) {
      if (Fx.Slot >= Slots.size() || !Slots[Fx.Slot])
        return err("phi fixup slot out of range");
      if (Slots[Fx.Slot]->getType() !=
          Fx.I->getOperand(Fx.OperandIndex)->getType())
        return err("phi fixup type mismatch");
      Fx.I->setOperand(Fx.OperandIndex, Slots[Fx.Slot]);
    }
    return R.ok();
  }

  bool readInstructionInto(BasicBlock *BB, std::vector<Fixup> &Fixups);

  Context &Ctx;
  ByteReader R;
  std::unique_ptr<Module> M;
  std::string Diag;
  std::vector<GlobalVariable *> Globals;
  std::vector<Function *> Functions;
  std::vector<Value *> Slots;
  std::vector<BasicBlock *> Blocks;
  /// Operands of the record being read, reused across records.
  std::vector<Value *> OperandScratch;
};

bool Reader::readInstructionInto(BasicBlock *BB, std::vector<Fixup> &Fixups) {
  uint8_t RawKind = R.readU8();
  std::string Name = R.readString();
  if (RawKind <= static_cast<uint8_t>(ValueKind::InstBegin) ||
      RawKind >= static_cast<uint8_t>(ValueKind::InstEnd))
    return err("bad instruction kind");
  ValueKind K = static_cast<ValueKind>(RawKind);

  std::unique_ptr<Instruction> I;
  switch (K) {
  case ValueKind::ICmp: {
    uint8_t P = R.readU8();
    if (P > static_cast<uint8_t>(ICmpPred::UGE))
      return err("bad icmp predicate");
    Value *L = readOperand();
    Value *Rv = readOperand();
    if (!L || !Rv || L->getType() != Rv->getType())
      return err("bad icmp operands");
    I = std::make_unique<ICmpInst>(static_cast<ICmpPred>(P), L, Rv,
                                   Ctx.getI1Ty());
    break;
  }
  case ValueKind::FCmp: {
    uint8_t P = R.readU8();
    if (P > static_cast<uint8_t>(FCmpPred::OGE))
      return err("bad fcmp predicate");
    Value *L = readOperand();
    Value *Rv = readOperand();
    if (!L || !Rv || L->getType() != Rv->getType() ||
        !L->getType()->isFloatingPoint())
      return err("bad fcmp operands");
    I = std::make_unique<FCmpInst>(static_cast<FCmpPred>(P), L, Rv,
                                   Ctx.getI1Ty());
    break;
  }
  case ValueKind::Alloca: {
    Type *ElemTy = readType();
    uint32_t N = R.readU32();
    if (!ElemTy || ElemTy->isVoid())
      return err("bad alloca type");
    I = std::make_unique<AllocaInst>(Ctx.getPtrTy(), ElemTy, N);
    break;
  }
  case ValueKind::Load: {
    Type *Ty = readType();
    Value *P = readOperand();
    if (!Ty || Ty->isVoid() || !P || !P->getType()->isPointer())
      return err("bad load");
    I = std::make_unique<LoadInst>(Ty, P);
    break;
  }
  case ValueKind::PtrAdd: {
    uint32_t ElemSize = R.readU32();
    Value *Base = readOperand();
    Value *Idx = readOperand();
    if (!Base || !Idx || !Base->getType()->isPointer() ||
        !Idx->getType()->isInteger() || Idx->getType()->isI1())
      return err("bad ptradd");
    I = std::make_unique<PtrAddInst>(Base, Idx, ElemSize);
    break;
  }
  case ValueKind::ThreadIdx:
  case ValueKind::BlockIdx:
  case ValueKind::BlockDim:
  case ValueKind::GridDim: {
    uint8_t Dim = R.readU8();
    if (Dim > 2)
      return err("bad geometry dimension");
    I = std::make_unique<GpuIndexInst>(K, Dim, Ctx.getI32Ty());
    break;
  }
  case ValueKind::Barrier:
    I = std::make_unique<BarrierInst>(Ctx.getVoidTy());
    break;
  case ValueKind::Phi: {
    Type *Ty = readType();
    uint32_t N = R.readU32();
    if (!Ty || Ty->isVoid() || (N % 2) != 0 || N > 1u << 16)
      return err("bad phi record");
    auto Phi = std::make_unique<PhiInst>(Ty);
    Phi->reserveIncoming(std::min<size_t>(N / 2, R.remaining()));
    for (uint32_t Op = 0; Op != N && R.ok(); Op += 2) {
      Value *V = readOperand(&Fixups, Phi.get(), Op, Ty);
      Value *B = readOperand();
      auto *InBB = dyn_cast_if_present<BasicBlock>(B);
      if (!V || !InBB || V->getType() != Ty)
        return err("bad phi incoming");
      Phi->addIncoming(V, InBB);
    }
    I = std::move(Phi);
    break;
  }
  default: {
    if (CastInst::isCastKind(K)) {
      Type *DstTy = readType();
      uint32_t N = R.readU32();
      Value *Src = N == 1 ? readOperand() : nullptr;
      if (!DstTy || !Src)
        return err("bad cast record");
      I = std::make_unique<CastInst>(K, Src, DstTy);
      break;
    }
    uint32_t N = R.readU32();
    if (N > 1u << 16)
      return err("operand count too large");
    std::vector<Value *> &Ops = OperandScratch;
    Ops.clear();
    for (uint32_t Op = 0; Op != N && R.ok(); ++Op) {
      Value *V = readOperand();
      if (!V)
        return err("bad operand");
      Ops.push_back(V);
    }
    switch (K) {
    case ValueKind::Select:
      if (Ops.size() != 3 || !Ops[0]->getType()->isI1() ||
          Ops[1]->getType() != Ops[2]->getType())
        return err("bad select");
      I = std::make_unique<SelectInst>(Ops[0], Ops[1], Ops[2]);
      break;
    case ValueKind::Store:
      if (Ops.size() != 2 || !Ops[1]->getType()->isPointer())
        return err("bad store");
      I = std::make_unique<StoreInst>(Ops[0], Ops[1], Ctx.getVoidTy());
      break;
    case ValueKind::AtomicAdd:
      if (Ops.size() != 2 || !Ops[0]->getType()->isPointer())
        return err("bad atomicadd");
      I = std::make_unique<AtomicAddInst>(Ops[0], Ops[1]);
      break;
    case ValueKind::Call: {
      if (Ops.empty())
        return err("bad call");
      auto *Callee = dyn_cast<Function>(Ops[0]);
      if (!Callee || Ops.size() - 1 != Callee->getNumArgs())
        return err("bad call target/arity");
      std::vector<Value *> Args(Ops.begin() + 1, Ops.end());
      for (size_t A = 0; A != Args.size(); ++A)
        if (Args[A]->getType() != Callee->getArg(A)->getType())
          return err("call argument type mismatch");
      I = std::make_unique<CallInst>(Callee->getReturnType(), Callee, Args);
      break;
    }
    case ValueKind::Br: {
      auto *Dest = Ops.size() == 1 ? dyn_cast<BasicBlock>(Ops[0]) : nullptr;
      if (!Dest)
        return err("bad br");
      I = std::make_unique<BranchInst>(Dest, Ctx.getVoidTy());
      break;
    }
    case ValueKind::CondBr: {
      if (Ops.size() != 3 || !Ops[0]->getType()->isI1())
        return err("bad condbr");
      auto *T = dyn_cast<BasicBlock>(Ops[1]);
      auto *F = dyn_cast<BasicBlock>(Ops[2]);
      if (!T || !F)
        return err("bad condbr targets");
      I = std::make_unique<BranchInst>(Ops[0], T, F, Ctx.getVoidTy());
      break;
    }
    case ValueKind::Ret:
      if (Ops.size() > 1)
        return err("bad ret");
      I = Ops.empty()
              ? std::make_unique<RetInst>(Ctx.getVoidTy())
              : std::make_unique<RetInst>(Ops[0], Ctx.getVoidTy());
      break;
    default:
      if (BinaryInst::isBinaryKind(K)) {
        if (Ops.size() != 2 || Ops[0]->getType() != Ops[1]->getType())
          return err("bad binary operands");
        I = std::make_unique<BinaryInst>(K, Ops[0], Ops[1]);
        break;
      }
      if (UnaryInst::isUnaryKind(K)) {
        if (Ops.size() != 1)
          return err("bad unary operands");
        I = std::make_unique<UnaryInst>(K, Ops[0]);
        break;
      }
      return err("unhandled instruction kind");
    }
    break;
  }
  }

  if (!R.ok() || !I)
    return err("truncated instruction record");
  I->setName(std::move(Name));
  Instruction *Raw = BB->append(std::move(I));
  if (!Raw->getType()->isVoid())
    Slots.push_back(Raw);
  return true;
}

} // namespace

std::vector<uint8_t> proteus::writeBitcode(Module &M) {
  return Writer(M).run();
}

BitcodeReadResult proteus::readBitcode(Context &Ctx,
                                       const std::vector<uint8_t> &Bytes) {
  return Reader(Ctx, Bytes).run();
}
