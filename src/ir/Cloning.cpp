//===- Cloning.cpp - IR cloning utilities ---------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"

#include "ir/Constants.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "support/Error.h"

#include <functional>
#include <unordered_set>

using namespace pir;
using namespace proteus;

namespace {

/// Returns the destination-context singleton for \p Ty. Identity when the
/// source already lives in \p Ctx (types are uniqued per context), which is
/// what makes cross-context cloning a strict generalization of the original
/// same-context behavior.
Type *mapType(Type *Ty, Context &Ctx) { return Ctx.getType(Ty->getKind()); }

/// Re-creates \p C inside \p Ctx. Constants are uniqued per context, so for
/// same-context cloning this returns \p C itself.
Constant *translateConstant(Constant *C, Context &Ctx) {
  if (auto *CI = dyn_cast<ConstantInt>(C))
    return Ctx.getConstantInt(mapType(CI->getType(), Ctx), CI->getZExtValue());
  if (auto *CF = dyn_cast<ConstantFP>(C))
    return Ctx.getConstantFP(mapType(CF->getType(), Ctx), CF->getValue());
  if (auto *CP = dyn_cast<ConstantPtr>(C))
    return Ctx.getConstantPtr(CP->getAddress());
  proteus_unreachable("unhandled constant kind in translateConstant");
}

Value *mapOperand(Value *Op, ValueMap &VM, Context &Ctx) {
  if (auto *C = dyn_cast<Constant>(Op)) {
    // Constants are uniqued per context: a same-context clone keeps them.
    // Cross-context clones translate each once and memoize it.
    if (C->getType() == mapType(C->getType(), Ctx))
      return C;
    if (Value *T = VM.lookup(C))
      return T;
    Value *T = translateConstant(C, Ctx);
    VM.insert(C, T);
    return T;
  }
  // Other unmapped values are used as-is, which is correct only for values
  // the caller guarantees are shared (e.g. caller-context values during
  // inlining).
  Value *Mapped = VM.lookup(Op);
  return Mapped ? Mapped : Op;
}

} // namespace

std::unique_ptr<Instruction> pir::cloneInstruction(Instruction &I,
                                                   ValueMap &VM,
                                                   Context &Ctx) {
  auto Op = [&](size_t K) { return mapOperand(I.getOperand(K), VM, Ctx); };

  switch (I.getKind()) {
  case ValueKind::ICmp: {
    auto &C = cast<ICmpInst>(I);
    return std::make_unique<ICmpInst>(C.getPredicate(), Op(0), Op(1),
                                      Ctx.getI1Ty());
  }
  case ValueKind::FCmp: {
    auto &C = cast<FCmpInst>(I);
    return std::make_unique<FCmpInst>(C.getPredicate(), Op(0), Op(1),
                                      Ctx.getI1Ty());
  }
  case ValueKind::Select:
    return std::make_unique<SelectInst>(Op(0), Op(1), Op(2));
  case ValueKind::Alloca: {
    auto &A = cast<AllocaInst>(I);
    return std::make_unique<AllocaInst>(Ctx.getPtrTy(),
                                        mapType(A.getAllocatedType(), Ctx),
                                        A.getNumElements());
  }
  case ValueKind::Load:
    return std::make_unique<LoadInst>(mapType(I.getType(), Ctx), Op(0));
  case ValueKind::Store:
    return std::make_unique<StoreInst>(Op(0), Op(1), Ctx.getVoidTy());
  case ValueKind::PtrAdd: {
    auto &P = cast<PtrAddInst>(I);
    return std::make_unique<PtrAddInst>(Op(0), Op(1), P.getElemSize());
  }
  case ValueKind::AtomicAdd:
    return std::make_unique<AtomicAddInst>(Op(0), Op(1));
  case ValueKind::ThreadIdx:
  case ValueKind::BlockIdx:
  case ValueKind::BlockDim:
  case ValueKind::GridDim: {
    auto &G = cast<GpuIndexInst>(I);
    return std::make_unique<GpuIndexInst>(I.getKind(), G.getDim(),
                                          Ctx.getI32Ty());
  }
  case ValueKind::Barrier:
    return std::make_unique<BarrierInst>(Ctx.getVoidTy());
  case ValueKind::Call: {
    auto &C = cast<CallInst>(I);
    std::vector<Value *> Args;
    Args.reserve(C.getNumArgs());
    for (size_t K = 0; K != C.getNumArgs(); ++K)
      Args.push_back(Op(K + 1));
    return std::make_unique<CallInst>(mapType(I.getType(), Ctx), Op(0), Args);
  }
  case ValueKind::Phi: {
    auto &P = cast<PhiInst>(I);
    Type *Ty = mapType(P.getType(), Ctx);
    auto Clone = std::make_unique<PhiInst>(Ty);
    Clone->reserveIncoming(P.getNumIncoming());
    for (size_t K = 0; K != P.getNumIncoming(); ++K) {
      // Incoming values may be forward references to instructions not yet
      // cloned. Install a typed placeholder rather than the original value:
      // touching the original would append to its use list, mutating the
      // source function (a data race when cloning from a shared prototype).
      // The caller's second phi-patch pass resolves the real value.
      Value *OrigV = P.getIncomingValue(K);
      Value *InV = isa<Constant>(OrigV) ? mapOperand(OrigV, VM, Ctx)
                                        : VM.lookup(OrigV);
      if (!InV)
        InV = Ctx.getZeroValue(Ty);
      auto *InB = cast<BasicBlock>(mapOperand(P.getIncomingBlock(K), VM, Ctx));
      Clone->addIncoming(InV, InB);
    }
    return Clone;
  }
  case ValueKind::Br: {
    auto &Br = cast<BranchInst>(I);
    return std::make_unique<BranchInst>(
        cast<BasicBlock>(mapOperand(Br.getSuccessor(0), VM, Ctx)),
        Ctx.getVoidTy());
  }
  case ValueKind::CondBr: {
    auto &Br = cast<BranchInst>(I);
    return std::make_unique<BranchInst>(
        Op(0), cast<BasicBlock>(mapOperand(Br.getSuccessor(0), VM, Ctx)),
        cast<BasicBlock>(mapOperand(Br.getSuccessor(1), VM, Ctx)),
        Ctx.getVoidTy());
  }
  case ValueKind::Ret: {
    auto &R = cast<RetInst>(I);
    if (R.hasReturnValue())
      return std::make_unique<RetInst>(Op(0), Ctx.getVoidTy());
    return std::make_unique<RetInst>(Ctx.getVoidTy());
  }
  default:
    break;
  }
  if (isa<BinaryInst>(&I))
    return std::make_unique<BinaryInst>(I.getKind(), Op(0), Op(1));
  if (isa<UnaryInst>(&I))
    return std::make_unique<UnaryInst>(I.getKind(), Op(0));
  if (isa<CastInst>(&I))
    return std::make_unique<CastInst>(I.getKind(), Op(0),
                                      mapType(I.getType(), Ctx));
  proteus_unreachable("unhandled instruction kind in cloneInstruction");
}

void pir::remapPhiIncoming(PhiInst &Clone, PhiInst &Orig, ValueMap &VM,
                           Context &Ctx) {
  for (size_t K = 0; K != Clone.getNumIncoming(); ++K)
    Clone.setIncomingValue(K, mapOperand(Orig.getIncomingValue(K), VM, Ctx));
}

namespace {

/// Clones \p Src's body into the empty \p Dst: one block per source block,
/// then the instructions, then the phi incoming values that were forward
/// references. \p VM already maps arguments, globals and functions.
void cloneBody(Function &Src, Function &Dst, ValueMap &VM, Context &Ctx) {
  for (BasicBlock &BB : Src)
    VM.insert(&BB, Dst.createBlock(BB.getName(), Ctx.getVoidTy()));
  struct PhiPatch {
    PhiInst *Clone;
    PhiInst *Orig;
  };
  std::vector<PhiPatch> Phis;
  for (BasicBlock &BB : Src) {
    auto *DstBB = cast<BasicBlock>(VM.lookup(&BB));
    for (Instruction &I : BB) {
      std::unique_ptr<Instruction> C = cloneInstruction(I, VM, Ctx);
      C->setName(I.getName());
      Instruction *Raw = DstBB->append(std::move(C));
      VM.insert(&I, Raw);
      if (auto *P = dyn_cast<PhiInst>(Raw))
        Phis.push_back(PhiPatch{P, cast<PhiInst>(&I)});
    }
  }
  for (const PhiPatch &P : Phis)
    remapPhiIncoming(*P.Clone, *P.Orig, VM, Ctx);
}

/// Creates in \p Dest a declaration \p Name with \p Src's signature and
/// attributes.
Function *cloneDeclaration(Module &Dest, Function &Src,
                           const std::string &Name) {
  Context &Ctx = Dest.getContext();
  std::vector<Type *> ParamTypes;
  std::vector<std::string> ParamNames;
  for (const auto &A : Src.args()) {
    ParamTypes.push_back(mapType(A->getType(), Ctx));
    ParamNames.push_back(A->getName());
  }
  Function *Dst =
      Dest.createFunction(Name, mapType(Src.getReturnType(), Ctx), ParamTypes,
                          ParamNames, Src.getFunctionKind());
  Dst->setAlwaysInline(Src.isAlwaysInline());
  if (Src.getLaunchBounds())
    Dst->setLaunchBounds(*Src.getLaunchBounds());
  if (Src.getJitAnnotation())
    Dst->setJitAnnotation(*Src.getJitAnnotation());
  return Dst;
}

} // namespace

Function *pir::cloneFunctionInto(Module &DestModule, Function &Src,
                                 const std::string &NewName) {
  Context &Ctx = DestModule.getContext();
  Function *Dst = cloneDeclaration(DestModule, Src, NewName);
  if (Src.isDeclaration())
    return Dst;

  Module &SrcModule = *Src.getParent();
  ValueMap VM(Src.valueIdBound() + SrcModule.globals().size() +
              SrcModule.functions().size());
  for (size_t I = 0; I != Src.getNumArgs(); ++I)
    VM.insert(Src.getArg(I), Dst->getArg(I));
  // Remap globals and callees by name.
  for (const auto &G : SrcModule.globals())
    if (GlobalVariable *DG = DestModule.getGlobal(G->getName()))
      VM.insert(G.get(), DG);
  for (const auto &F : SrcModule.functions()) {
    Function *DF = DestModule.getFunction(F->getName());
    if (DF && DF != Dst)
      VM.insert(F.get(), DF);
  }
  cloneBody(Src, *Dst, VM, Ctx);
  return Dst;
}

KernelClosure pir::computeKernelClosure(Function &Kernel) {
  KernelClosure C;
  std::unordered_set<Function *> Visited;
  std::unordered_set<GlobalVariable *> Referenced;
  std::function<void(Function *)> Visit = [&](Function *F) {
    if (!Visited.insert(F).second)
      return;
    for (BasicBlock &BB : *F)
      for (Instruction &I : BB)
        for (Value *Op : I.operands()) {
          if (auto *Callee = dyn_cast<Function>(Op))
            Visit(Callee);
          else if (auto *G = dyn_cast<GlobalVariable>(Op))
            Referenced.insert(G);
        }
    C.Functions.push_back(F);
  };
  Visit(&Kernel);
  for (const auto &G : Kernel.getParent()->globals())
    if (Referenced.count(G.get()))
      C.Globals.push_back(G.get());
  return C;
}

std::unique_ptr<Module> pir::cloneClosure(const KernelClosure &C, Context &Ctx,
                                          const std::string &Name) {
  auto Out = std::make_unique<Module>(Ctx, Name);
  for (GlobalVariable *G : C.Globals)
    Out->createGlobal(G->getName(), mapType(G->getElemType(), Ctx),
                      G->getNumElements(), G->getInit());
  for (Function *F : C.Functions)
    cloneFunctionInto(*Out, *F, F->getName());
  return Out;
}

std::unique_ptr<Module> pir::cloneModule(Module &Src, Context &Ctx,
                                         const std::string &NewName) {
  auto Dst = std::make_unique<Module>(Ctx, NewName);
  for (const auto &G : Src.globals())
    Dst->createGlobal(G->getName(), mapType(G->getElemType(), Ctx),
                      G->getNumElements(), G->getInit());
  // Declarations first so cross-calls resolve regardless of order.
  for (const auto &F : Src.functions())
    cloneDeclaration(*Dst, *F, F->getName());
  for (const auto &F : Src.functions()) {
    if (F->isDeclaration())
      continue;
    Function *DF = Dst->getFunction(F->getName());
    // Clone the body into the existing declaration.
    ValueMap VM(F->valueIdBound() + Src.globals().size() +
                Src.functions().size());
    for (size_t I = 0; I != F->getNumArgs(); ++I)
      VM.insert(F->getArg(I), DF->getArg(I));
    for (const auto &G : Src.globals())
      VM.insert(G.get(), Dst->getGlobal(G->getName()));
    for (const auto &OF : Src.functions())
      VM.insert(OF.get(), Dst->getFunction(OF->getName()));
    cloneBody(*F, *DF, VM, Ctx);
  }
  return Dst;
}
