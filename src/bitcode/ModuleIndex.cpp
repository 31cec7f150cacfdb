//===- ModuleIndex.cpp - parse-once pruned kernel-module cache ------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "bitcode/ModuleIndex.h"

#include "bitcode/Bitcode.h"
#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/Instructions.h"
#include "ir/Module.h"

#include <functional>
#include <unordered_set>

using namespace proteus;
using namespace pir;

KernelModuleIndex::KernelModuleIndex() = default;
KernelModuleIndex::~KernelModuleIndex() = default;

std::shared_ptr<const KernelModuleIndex>
KernelModuleIndex::create(const std::vector<uint8_t> &Bitcode,
                          std::string &Error) {
  // make_shared needs a public constructor; use new + shared_ptr instead.
  std::shared_ptr<KernelModuleIndex> Index(new KernelModuleIndex());
  Index->ProtoCtx = std::make_unique<Context>();
  BitcodeReadResult R = readBitcode(*Index->ProtoCtx, Bitcode);
  if (!R.M) {
    Error = R.Error;
    return nullptr;
  }
  Index->Proto = std::move(R.M);

  Module &M = *Index->Proto;
  Index->TotalFunctions = M.functions().size();

  // Precompute each kernel's transitive callee + referenced-global closure,
  // mirroring extractKernelModule's AOT-time walk. Done once here so the
  // per-specialization materialize() is a straight clone of a fixed list.
  for (Function *K : M.kernels()) {
    Closure C;
    std::unordered_set<Function *> Visited;
    std::unordered_set<GlobalVariable *> NeededGlobals;
    std::function<void(Function *)> Visit = [&](Function *F) {
      if (!Visited.insert(F).second)
        return;
      for (BasicBlock &BB : *F)
        for (Instruction &I : BB)
          for (Value *Op : I.operands()) {
            if (auto *Callee = dyn_cast<Function>(Op))
              Visit(Callee);
            else if (auto *G = dyn_cast<GlobalVariable>(Op))
              NeededGlobals.insert(G);
          }
      // Post-order: callees precede callers.
      C.Functions.push_back(F);
    };
    Visit(K);
    // Globals in deterministic source order.
    for (const auto &G : M.globals())
      if (NeededGlobals.count(G.get()))
        C.Globals.push_back(G.get());
    Index->Closures.emplace(K->getName(), std::move(C));
  }
  return Index;
}

std::vector<std::string>
KernelModuleIndex::closureGlobalNames(const std::string &KernelSymbol) const {
  std::vector<std::string> Names;
  auto It = Closures.find(KernelSymbol);
  if (It == Closures.end())
    return Names;
  for (const GlobalVariable *G : It->second.Globals)
    Names.push_back(G->getName());
  return Names;
}

std::unique_ptr<Module>
KernelModuleIndex::materialize(Context &Ctx, const std::string &KernelSymbol,
                               uint64_t *PrunedFunctions) const {
  auto It = Closures.find(KernelSymbol);
  if (It == Closures.end())
    return nullptr;
  const Closure &C = It->second;

  auto Out = std::make_unique<Module>(Ctx, Proto->getName());
  for (GlobalVariable *G : C.Globals)
    Out->createGlobal(G->getName(),
                      Ctx.getType(G->getElemType()->getKind()),
                      G->getNumElements(), G->getInit());
  for (Function *F : C.Functions)
    cloneFunctionInto(*Out, *F, F->getName());
  if (PrunedFunctions)
    *PrunedFunctions = TotalFunctions - C.Functions.size();
  return Out;
}
