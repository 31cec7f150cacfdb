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

  // Precompute each kernel's closure, the same walk as extractKernelModule's
  // at AOT time. Done once here so the per-specialization materialize() is a
  // straight clone of a fixed list.
  for (Function *K : M.kernels())
    Index->Closures.emplace(K->getName(), computeKernelClosure(*K));
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
  if (PrunedFunctions)
    *PrunedFunctions = Proto->functions().size() - It->second.Functions.size();
  return cloneClosure(It->second, Ctx, Proto->getName());
}
