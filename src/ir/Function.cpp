//===- Function.cpp - PIR function -------------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "ir/Context.h"
#include "ir/Module.h"

using namespace pir;

Function::Function(Type *PtrTy, std::string Name, Type *RetTy,
                   const std::vector<Type *> &ParamTypes,
                   const std::vector<std::string> &ParamNames, FunctionKind FK)
    : Value(ValueKind::Function, PtrTy), RetTy(RetTy), FK(FK) {
  setName(std::move(Name));
  assert((ParamNames.empty() || ParamNames.size() == ParamTypes.size()) &&
         "parameter name/type count mismatch");
  for (size_t I = 0, E = ParamTypes.size(); I != E; ++I) {
    std::string ArgName =
        ParamNames.empty() ? ("arg" + std::to_string(I)) : ParamNames[I];
    Args.push_back(std::make_unique<Argument>(ParamTypes[I],
                                              std::move(ArgName), this,
                                              static_cast<unsigned>(I)));
    numberValue(*Args.back());
  }
}

Function::~Function() { dropBody(); }

void Function::dropBody() {
  // Instructions may reference values across blocks (and blocks reference
  // each other); sever all edges before any block is destroyed.
  for (BasicBlock &BB : *this)
    for (Instruction &I : BB)
      I.dropAllReferences();
  Blocks.clear();
}

BasicBlock *Function::createBlock(std::string Name, Type *VoidTy) {
  auto *BB = new BasicBlock(VoidTy, std::move(Name));
  BB->Parent = this;
  numberValue(*BB);
  Blocks.pushBack(BB);
  return BB;
}

void Function::eraseBlock(BasicBlock *BB) {
  assert(BB->getParent() == this && "block not in this function");
  // Sever instruction operand edges first so that cross-references (e.g.
  // branches into this block being deleted elsewhere first) cannot dangle.
  for (Instruction &I : *BB)
    I.dropAllReferences();
  while (!BB->empty())
    BB->erase(&BB->front());
  assert(!BB->hasUses() && "erasing a block that is still referenced");
  Blocks.unlink(BB);
  delete BB;
}

void Function::moveBlockAfter(BasicBlock *BB, BasicBlock *After) {
  assert(BB->getParent() == this && After->getParent() == this &&
         BB != After && "blocks not in this function");
  Blocks.unlink(BB);
  Blocks.insertBefore(After->getNextNode(), BB);
}

std::vector<BasicBlock *> Function::blockList() {
  std::vector<BasicBlock *> Out;
  Out.reserve(Blocks.size());
  for (BasicBlock &BB : *this)
    Out.push_back(&BB);
  return Out;
}
