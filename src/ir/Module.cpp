//===- Module.cpp - PIR module -----------------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "support/Hashing.h"

using namespace pir;

Module::~Module() {
  // Calls reference their callees: empty every body before any function
  // is destroyed.
  for (auto &F : Functions)
    F->dropBody();
  Functions.clear();
  Globals.clear();
}

Function *Module::createFunction(std::string FName, Type *RetTy,
                                 const std::vector<Type *> &ParamTypes,
                                 const std::vector<std::string> &ParamNames,
                                 FunctionKind FK) {
  assert(!getFunction(FName) && "duplicate function name");
  auto F = std::make_unique<Function>(Ctx.getPtrTy(), FName, RetTy, ParamTypes,
                                      ParamNames, FK);
  Function *Raw = F.get();
  Raw->Parent = this;
  FunctionMap.emplace(Raw->getName(), Raw);
  Functions.push_back(std::move(F));
  return Raw;
}

Function *Module::getFunction(const std::string &FName) const {
  auto It = FunctionMap.find(FName);
  return It == FunctionMap.end() ? nullptr : It->second;
}

void Module::eraseFunction(Function *F) {
  assert(F->getParent() == this && "function not in this module");
  assert(!F->hasUses() && "erasing a function that is still called");
  FunctionMap.erase(F->getName());
  for (auto It = Functions.begin(), E = Functions.end(); It != E; ++It) {
    if (It->get() == F) {
      Functions.erase(It);
      return;
    }
  }
  assert(false && "function not found in list");
}

std::vector<Function *> Module::kernels() const {
  std::vector<Function *> Out;
  for (const auto &F : Functions)
    if (F->isKernel())
      Out.push_back(F.get());
  return Out;
}

GlobalVariable *Module::createGlobal(std::string GName, Type *ElemTy,
                                     uint64_t NumElements,
                                     std::vector<uint8_t> Init) {
  assert(!getGlobal(GName) && "duplicate global name");
  auto G = std::make_unique<GlobalVariable>(Ctx.getPtrTy(), GName, ElemTy,
                                            NumElements, std::move(Init));
  GlobalVariable *Raw = G.get();
  GlobalMap.emplace(Raw->getName(), Raw);
  Globals.push_back(std::move(G));
  return Raw;
}

GlobalVariable *Module::getGlobal(const std::string &GName) const {
  auto It = GlobalMap.find(GName);
  return It == GlobalMap.end() ? nullptr : It->second;
}

uint64_t Module::computeModuleId() const {
  return proteus::hashString(printModule(*const_cast<Module *>(this)));
}
