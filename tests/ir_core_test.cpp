//===- ir_core_test.cpp - IR value/use/builder/verifier tests ----------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"
#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "ir/Cloning.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace pir;
using namespace proteus_test;

namespace {

TEST(TypeTest, Singletons) {
  Context Ctx;
  EXPECT_EQ(Ctx.getI32Ty(), Ctx.getI32Ty());
  EXPECT_NE(Ctx.getI32Ty(), Ctx.getI64Ty());
  EXPECT_EQ(Ctx.getI32Ty()->sizeInBytes(), 4u);
  EXPECT_EQ(Ctx.getF64Ty()->sizeInBytes(), 8u);
  EXPECT_EQ(Ctx.getPtrTy()->sizeInBytes(), 8u);
  EXPECT_TRUE(Ctx.getI1Ty()->isInteger());
  EXPECT_FALSE(Ctx.getF32Ty()->isInteger());
  EXPECT_EQ(Ctx.getI64Ty()->integerBitWidth(), 64u);
}

TEST(TypeTest, Names) {
  Context Ctx;
  EXPECT_EQ(Ctx.getVoidTy()->getName(), "void");
  EXPECT_EQ(Ctx.getI1Ty()->getName(), "i1");
  EXPECT_EQ(Ctx.getF32Ty()->getName(), "f32");
  EXPECT_EQ(Ctx.getPtrTy()->getName(), "ptr");
}

TEST(ConstantTest, IntegerUniquingAndSignedness) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32(7), Ctx.getInt32(7));
  EXPECT_NE(Ctx.getInt32(7), Ctx.getInt64(7));
  ConstantInt *Neg = Ctx.getConstantInt(Ctx.getI32Ty(),
                                        static_cast<uint64_t>(-5));
  EXPECT_EQ(Neg->getSExtValue(), -5);
  EXPECT_EQ(Neg->getZExtValue(), 0xFFFFFFFBull);
  ConstantInt *True = Ctx.getTrue();
  EXPECT_EQ(True->getZExtValue(), 1u);
  EXPECT_EQ(True->getSExtValue(), -1); // i1 sign extension
}

TEST(ConstantTest, FPUniquingKeepsNegativeZeroDistinct) {
  Context Ctx;
  EXPECT_EQ(Ctx.getDouble(1.5), Ctx.getDouble(1.5));
  EXPECT_NE(Ctx.getDouble(0.0), Ctx.getDouble(-0.0));
  // f32 constants round to f32 precision.
  ConstantFP *F = Ctx.getFloat(0.1f);
  EXPECT_EQ(F->getValue(), static_cast<double>(0.1f));
}

TEST(ConstantTest, PointerUniquing) {
  Context Ctx;
  EXPECT_EQ(Ctx.getConstantPtr(64), Ctx.getConstantPtr(64));
  EXPECT_TRUE(Ctx.getNullPtr()->isNull());
}

TEST(UseListTest, RAUWRewritesAllUses) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getI32Ty()},
                                 {"a", "b"}, FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(BB);
  Value *S1 = B.createAdd(F->getArg(0), F->getArg(0));
  Value *S2 = B.createMul(S1, F->getArg(0));
  B.createRet();

  EXPECT_EQ(F->getArg(0)->getNumUses(), 3u);
  F->getArg(0)->replaceAllUsesWith(F->getArg(1));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 0u);
  EXPECT_EQ(F->getArg(1)->getNumUses(), 3u);
  EXPECT_EQ(cast<Instruction>(S2)->getOperand(1), F->getArg(1));
  EXPECT_EQ(cast<Instruction>(S1)->getOperand(0), F->getArg(1));
}

TEST(UseListTest, SetOperandMaintainsBackPointers) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getI32Ty()},
                                 {"a"}, FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(BB);
  // Build many users, then remove uses in arbitrary order to stress the
  // swap-with-last bookkeeping.
  std::vector<Instruction *> Adds;
  for (int I = 0; I < 16; ++I)
    Adds.push_back(
        cast<Instruction>(B.createAdd(F->getArg(0), B.getInt32(I))));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 16u);
  for (int I = 15; I >= 0; I -= 2)
    Adds[I]->setOperand(0, B.getInt32(99));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 8u);
  for (const Use &U : F->getArg(0)->uses())
    EXPECT_EQ(U.TheUser->getOperand(U.OperandIndex), F->getArg(0));
  B.createRet();
}

TEST(InstructionTest, EraseFromParentAndMoveBefore) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(BB);
  Value *A = B.createThreadIdx(0);
  Value *C = B.createAdd(A, B.getInt32(1));
  B.createRet();
  EXPECT_EQ(BB->size(), 3u);
  Instruction *AddInst = cast<Instruction>(C);
  // Move the add before the thread-idx read (operand order preserved in the
  // list semantics is the caller's concern; here we just check linkage).
  AddInst->moveBefore(cast<Instruction>(A));
  EXPECT_EQ(&BB->front(), AddInst);
  // Erase: first drop the use.
  AddInst->eraseFromParent();
  EXPECT_EQ(BB->size(), 2u);
  EXPECT_EQ(A->getNumUses(), 0u);
}

TEST(InstructionTest, ClassificationPredicates) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"p"}, FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(BB);
  Value *L = B.createLoad(Ctx.getF64Ty(), F->getArg(0));
  B.createStore(L, F->getArg(0));
  B.createRet();

  auto It = BB->begin();
  Instruction &Load = *It;
  ++It;
  Instruction &Store = *It;
  ++It;
  Instruction &Ret = *It;
  EXPECT_FALSE(Load.mayHaveSideEffects());
  EXPECT_FALSE(Load.isSpeculatable()); // may fault
  EXPECT_TRUE(Store.mayHaveSideEffects());
  EXPECT_TRUE(Ret.isTerminator());
  EXPECT_FALSE(Load.isTerminator());
}

TEST(CFGTest, SuccessorsAndPredecessors) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  auto Blocks = F->blockList();
  ASSERT_EQ(Blocks.size(), 3u);
  BasicBlock *Entry = Blocks[0];
  BasicBlock *Then = Blocks[1];
  BasicBlock *Exit = Blocks[2];
  EXPECT_EQ(Entry->successors(),
            (std::vector<BasicBlock *>{Then, Exit}));
  EXPECT_EQ(Then->successors(), (std::vector<BasicBlock *>{Exit}));
  EXPECT_TRUE(Exit->successors().empty());
  auto ExitPreds = Exit->predecessors();
  EXPECT_EQ(ExitPreds.size(), 2u);
  EXPECT_TRUE(Entry->predecessors().empty());
}

/// Names of \p F's blocks in layout order, space-separated.
std::string blockNames(Function &F) {
  std::string Out;
  for (BasicBlock &BB : F)
    Out += (Out.empty() ? "" : " ") + BB.getName();
  return Out;
}

/// Names of \p BB's instructions in order, space-separated.
std::string instNames(BasicBlock &BB) {
  std::string Out;
  for (Instruction &I : BB)
    Out += (Out.empty() ? "" : " ") +
           (I.hasName() ? I.getName() : valueKindName(I.getKind()));
  return Out;
}

TEST(ListTest, MoveBeforeAcrossBlocksSpliceAndBlockLayout) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *A = F->createBlock("a", Ctx.getVoidTy());
  BasicBlock *B = F->createBlock("b", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(A);
  Value *T = Bld.createThreadIdx(0, "t");
  auto *X = cast<Instruction>(Bld.createAdd(T, Bld.getInt32(1), "x"));
  Bld.createBr(B);
  Bld.setInsertPoint(B);
  auto *Y = cast<Instruction>(Bld.createMul(X, Bld.getInt32(2), "y"));
  Bld.createRet();

  X->moveBefore(Y);
  EXPECT_EQ(X->getParent(), B);
  EXPECT_EQ(instNames(*A), "t br");
  EXPECT_EQ(instNames(*B), "x y ret");
  EXPECT_EQ(A->size(), 2u);
  EXPECT_EQ(B->size(), 3u);
  EXPECT_EQ(&*--B->end(), B->getTerminator());
  EXPECT_EQ(&*--(--B->end()), Y);
  EXPECT_EQ(&*--A->end(), &A->back());

  BasicBlock *D = F->createBlock("d", Ctx.getVoidTy());
  D->spliceAllFrom(B);
  EXPECT_TRUE(B->empty());
  EXPECT_EQ(B->size(), 0u);
  EXPECT_EQ(instNames(*D), "x y ret");
  EXPECT_EQ(D->size(), 3u);
  for (Instruction &I : *D)
    EXPECT_EQ(I.getParent(), D);
  EXPECT_EQ(X->getFunction(), F);

  cast<BranchInst>(A->getTerminator())->setSuccessor(0, D);
  F->eraseBlock(B);
  EXPECT_EQ(blockNames(*F), "a d");
  BasicBlock *E = F->createBlock("e", Ctx.getVoidTy());
  EXPECT_EQ(blockNames(*F), "a d e");
  F->moveBlockAfter(E, A);
  EXPECT_EQ(blockNames(*F), "a e d");
  F->moveBlockAfter(A, D);
  EXPECT_EQ(blockNames(*F), "e d a");
  EXPECT_EQ(&F->getEntryBlock(), E);
  F->moveBlockAfter(E, A);
  EXPECT_EQ(blockNames(*F), "d a e");
  F->moveBlockAfter(D, A);
  EXPECT_EQ(blockNames(*F), "a d e");
  F->eraseBlock(E);
  EXPECT_EQ(blockNames(*F), "a d");
  EXPECT_EQ(F->size(), 2u);
  std::vector<BasicBlock *> Expected{A, D};
  EXPECT_EQ(F->blockList(), Expected);
  expectValid(M);
}

TEST(ListTest, EraseUnderEarlyIncrementIteration) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(BB);
  for (int I = 0; I != 10; ++I)
    Bld.createThreadIdx(0, "t" + std::to_string(I));
  Bld.createRet();
  ASSERT_EQ(BB->size(), 11u);

  unsigned Index = 0;
  for (auto It = BB->begin(), End = BB->end(); It != End;) {
    Instruction &I = *It++;
    if (!I.isTerminator() && Index++ % 2 == 0)
      I.eraseFromParent();
  }
  EXPECT_EQ(instNames(*BB), "t1 t3 t5 t7 t9 ret");
  EXPECT_EQ(BB->size(), 6u);

  // Erase everything but the terminator, back to front.
  while (BB->size() > 1)
    (--(--BB->end()))->eraseFromParent();
  EXPECT_EQ(instNames(*BB), "ret");
  EXPECT_EQ(&BB->front(), &BB->back());
  BB->erase(&BB->front());
  EXPECT_TRUE(BB->empty());
  EXPECT_TRUE(BB->begin() == BB->end());
  EXPECT_EQ(BB->getTerminator(), nullptr);
}

TEST(OperandTest, PhiWithManyIncomingAndRemoveIncoming) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  constexpr unsigned N = 70;
  std::vector<BasicBlock *> Preds;
  for (unsigned K = 0; K != N; ++K)
    Preds.push_back(F->createBlock("p" + std::to_string(K), Ctx.getVoidTy()));
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(Join);
  PhiInst *Phi = Bld.createPhi(Ctx.getI32Ty(), "p");
  for (unsigned K = 0; K != N; ++K)
    Phi->addIncoming(Bld.getInt32(static_cast<int32_t>(K)), Preds[K]);
  ASSERT_EQ(Phi->getNumIncoming(), N);
  ASSERT_EQ(Phi->getNumOperands(), 2 * N);
  ASSERT_EQ(Phi->operands().size(), 2 * N);
  for (unsigned K = 0; K != N; ++K) {
    EXPECT_EQ(Phi->getIncomingBlock(K), Preds[K]);
    EXPECT_EQ(Phi->getIncomingValue(K),
              Bld.getInt32(static_cast<int32_t>(K)));
    ASSERT_EQ(Preds[K]->getNumUses(), 1u);
    EXPECT_EQ(Preds[K]->uses()[0].TheUser, Phi);
    EXPECT_EQ(Preds[K]->uses()[0].OperandIndex, 2 * K + 1);
  }

  // removeIncoming moves the last pair into the hole.
  Phi->removeIncoming(0);
  EXPECT_EQ(Phi->getNumIncoming(), N - 1);
  EXPECT_EQ(Phi->getIncomingBlock(0), Preds[N - 1]);
  EXPECT_EQ(Phi->getIncomingValue(0), Bld.getInt32(N - 1));
  EXPECT_EQ(Preds[0]->getNumUses(), 0u);
  EXPECT_EQ(Preds[N - 1]->uses()[0].OperandIndex, 1u);
  Phi->removeIncoming(Phi->getNumIncoming() - 1);
  EXPECT_EQ(Preds[N - 2]->getNumUses(), 0u);
  while (Phi->getNumIncoming() > 2)
    Phi->removeIncoming(1);
  EXPECT_EQ(Phi->getNumIncoming(), 2u);
  EXPECT_EQ(Phi->getIncomingBlock(0), Preds[N - 1]);
  // Every use record still points back at its operand.
  for (Value *Op : Phi->operands())
    for (const Use &U : Op->uses())
      EXPECT_EQ(U.TheUser->getOperand(U.OperandIndex), Op);

  // Grow past the inline capacity again, then drop every edge.
  for (unsigned K = 0; K != N - 2; ++K)
    Phi->addIncoming(Bld.getInt32(7), Preds[K]);
  EXPECT_EQ(Phi->getNumIncoming(), N);
  Phi->dropAllReferences();
  EXPECT_EQ(Phi->getNumOperands(), 0u);
  for (BasicBlock *P : Preds)
    EXPECT_FALSE(P->hasUses());
  EXPECT_FALSE(Bld.getInt32(7)->hasUses());
  Phi->eraseFromParent();
}

TEST(OperandTest, CallWithEightArguments) {
  Context Ctx;
  Module M(Ctx, "m");
  std::vector<Type *> Params(8, Ctx.getI32Ty());
  Function *Callee = M.createFunction("callee", Ctx.getI32Ty(), Params, {},
                                      FunctionKind::Device);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), Params, {},
                                 FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(BB);
  std::vector<Value *> Args;
  for (size_t K = 0; K != 8; ++K)
    Args.push_back(F->getArg(K));
  auto *Call = cast<CallInst>(Bld.createCall(Callee, Args, "c"));
  Bld.createRet();
  ASSERT_EQ(Call->getNumArgs(), 8u);
  ASSERT_EQ(Call->getNumOperands(), 9u);
  EXPECT_EQ(Call->getCallee(), Callee);
  size_t K = 0;
  for (Value *Op : Call->operands()) {
    if (K != 0) {
      EXPECT_EQ(Op, F->getArg(K - 1));
    }
    ++K;
  }
  for (size_t A = 0; A != 8; ++A) {
    EXPECT_EQ(Call->getArg(A), F->getArg(A));
    ASSERT_EQ(F->getArg(A)->getNumUses(), 1u);
    EXPECT_EQ(F->getArg(A)->uses()[0].OperandIndex, A + 1);
  }
  Call->setOperand(8, F->getArg(0));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 2u);
  EXPECT_FALSE(F->getArg(7)->hasUses());
  Call->dropAllReferences();
  EXPECT_FALSE(Callee->hasUses());
  for (size_t A = 0; A != 8; ++A)
    EXPECT_FALSE(F->getArg(A)->hasUses());
  Call->eraseFromParent();
}

/// "user:operand" for each use of \p V, in use-list order.
std::string useOrder(const Value &V) {
  std::string Out;
  for (const Use &U : V.uses())
    Out += (Out.empty() ? "" : " ") + U.TheUser->getName() + ":" +
           std::to_string(U.OperandIndex);
  return Out;
}

std::string predOrder(const BasicBlock &BB) {
  std::string Out;
  for (BasicBlock *P : BB.predecessors())
    Out += (Out.empty() ? "" : " ") + P->getName();
  return Out;
}

TEST(UseListTest, UseAndPredecessorOrderAfterEdits) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getI32Ty()},
                                 {"a", "b"}, FunctionKind::Kernel);
  Argument *A = F->getArg(0);
  Argument *B = F->getArg(1);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *L = F->createBlock("l", Ctx.getVoidTy());
  BasicBlock *R = F->createBlock("r", Ctx.getVoidTy());
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(Entry);
  Value *C = Bld.createICmp(ICmpPred::SLT, A, B, "c");
  Bld.createCondBr(C, L, R);
  Entry->getTerminator()->setName("br.entry");
  Bld.setInsertPoint(L);
  auto *X = cast<Instruction>(Bld.createAdd(A, B, "x"));
  auto *Y = cast<Instruction>(Bld.createMul(X, A, "y"));
  Bld.createBr(Join);
  L->getTerminator()->setName("br.l");
  Bld.setInsertPoint(R);
  auto *Z = cast<Instruction>(Bld.createSub(B, A, "z"));
  Bld.createBr(Join);
  R->getTerminator()->setName("br.r");
  Bld.setInsertPoint(Join);
  PhiInst *P = Bld.createPhi(Ctx.getI32Ty(), "p");
  P->addIncoming(X, L);
  P->addIncoming(Z, R);
  auto *Q = cast<Instruction>(Bld.createAdd(P, A, "q"));
  Bld.createRet();

  // A scripted edit sequence; each step moves use-list slots around. The
  // expected orders are what the swap-remove use lists produce, which the
  // printers, predecessors() and RAUW observe.
  Y->setOperand(1, B);
  P->removeIncoming(0);
  P->addIncoming(Y, L);
  Q->setOperand(1, B);
  Y->moveBefore(X);
  Y->setOperand(0, A);
  X->replaceAllUsesWith(Z);
  X->eraseFromParent();
  Z->moveBefore(L->getTerminator());
  cast<BranchInst>(R->getTerminator())->setSuccessor(0, L);
  cast<BranchInst>(Entry->getTerminator())->setSuccessor(0, Join);
  Bld.setInsertPoint(Q);
  Bld.createAdd(Y, B, "w");
  P->setIncomingBlock(0, Entry);

  EXPECT_EQ(useOrder(*A), "c:0 y:0 z:1");
  EXPECT_EQ(useOrder(*B), "c:1 q:1 z:0 y:1 w:1");
  EXPECT_EQ(useOrder(*Y), "p:2 w:0");
  EXPECT_EQ(useOrder(*Z), "p:0");
  EXPECT_EQ(useOrder(*L), "br.r:0 p:3");
  EXPECT_EQ(useOrder(*R), "br.entry:2");
  EXPECT_EQ(useOrder(*Join), "br.l:0 br.entry:1");
  EXPECT_EQ(useOrder(*Entry), "p:1");
  EXPECT_EQ(predOrder(*L), "r");
  EXPECT_EQ(predOrder(*R), "entry");
  EXPECT_EQ(predOrder(*Join), "l entry");
  EXPECT_EQ(instNames(*L), "y z br.l");
  EXPECT_EQ(instNames(*Join), "p w q ret");

  // The edits left the numbering sparse and out of layout order (x's id is
  // gone, w's is the newest, z now sits before the older br.l). Printer and
  // writer output depend on the layout only: a clone, numbered densely
  // afresh, prints and writes the same bytes.
  EXPECT_EQ(F->valueIdBound(), 17u);
  EXPECT_GT(Z->getValueId(), L->getTerminator()->getValueId());
  std::unique_ptr<Module> Clone = cloneModule(M, Ctx, "m");
  EXPECT_EQ(Clone->getFunction("k")->valueIdBound(), 16u);
  EXPECT_EQ(printModule(M), printModule(*Clone));
  EXPECT_EQ(proteus::writeBitcode(M), proteus::writeBitcode(*Clone));
}

/// A seeded edit script over a pool of arguments and one block, applied to
/// the IR and to a reference std::vector<Use> per value (append on a new
/// edge, swap-with-last on a severed one). Use counts cross the inline
/// capacity of the use list both ways, and after every step each use list
/// must equal its model entry for entry. PROTEUS_FUZZ_ITERS lengthens the
/// script.
TEST(UseListTest, RandomEditScriptMatchesAVectorModel) {
  Context Ctx;
  Module M(Ctx, "m");
  constexpr unsigned NumArgs = 4;
  Function *F =
      M.createFunction("k", Ctx.getVoidTy(),
                       std::vector<Type *>(NumArgs, Ctx.getI32Ty()), {},
                       FunctionKind::Kernel);
  BasicBlock *BB = F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder Bld(Ctx);
  Bld.setInsertPoint(BB);

  // Model slot K < NumArgs is argument K; slot NumArgs is the block, which
  // every phi incoming uses.
  std::vector<Value *> Pool;
  for (unsigned K = 0; K != NumArgs; ++K)
    Pool.push_back(F->getArg(K));
  Pool.push_back(BB);
  std::vector<std::vector<Use>> Model(Pool.size());
  auto slotOf = [&](const Value *V) {
    return static_cast<size_t>(std::find(Pool.begin(), Pool.end(), V) -
                               Pool.begin());
  };
  auto modelAdd = [&](const Value *V, User *U, uint32_t Index) {
    Model[slotOf(V)].push_back(Use{U, Index});
  };
  auto modelRemove = [&](const Value *V, const User *U, uint32_t Index) {
    std::vector<Use> &L = Model[slotOf(V)];
    auto It = std::find_if(L.begin(), L.end(), [&](const Use &E) {
      return E.TheUser == U && E.OperandIndex == Index;
    });
    ASSERT_NE(It, L.end());
    *It = L.back();
    L.pop_back();
  };
  auto modelSet = [&](User *U, uint32_t Index, Value *New) {
    Value *Old = U->getOperand(Index);
    if (Old == New)
      return;
    modelRemove(Old, U, Index);
    modelAdd(New, U, Index);
  };

  std::vector<PhiInst *> Phis;
  Rng R(0x05e11575);
  const unsigned Cap = UseVector::InlineUses;
  unsigned Grew = 0, Shrank = 0;
  std::vector<size_t> Counts(Pool.size(), 0);
  const unsigned Steps = fuzzIterations(2000);
  for (unsigned Step = 0; Step != Steps; ++Step) {
    SCOPED_TRACE("step " + std::to_string(Step));
    Argument *A = F->getArg(R.below(NumArgs));
    uint32_t Op = R.below(100);
    if (Phis.empty() || Op < 10) {
      // A new user with no operands yet.
      Phis.push_back(Bld.createPhi(Ctx.getI32Ty()));
    } else if (Op < 50) {
      // addOperand, twice: the incoming value, then the block.
      PhiInst *P = Phis[R.below(static_cast<uint32_t>(Phis.size()))];
      uint32_t Index = static_cast<uint32_t>(P->getNumOperands());
      P->addIncoming(A, BB);
      modelAdd(A, P, Index);
      modelAdd(BB, P, Index + 1);
    } else if (Op < 75) {
      // setOperand on an incoming value (the same value is a no-op).
      PhiInst *P = Phis[R.below(static_cast<uint32_t>(Phis.size()))];
      if (P->getNumIncoming() == 0)
        continue;
      uint32_t Index = 2 * R.below(P->getNumIncoming());
      modelSet(P, Index, A);
      P->setOperand(Index, A);
    } else if (Op < 88) {
      // RAUW: the last use moves first, as Value::replaceAllUsesWith does.
      Argument *To = F->getArg(R.below(NumArgs));
      if (To == A)
        continue;
      std::vector<Use> &From = Model[slotOf(A)];
      while (!From.empty()) {
        Use U = From.back();
        modelSet(U.TheUser, U.OperandIndex, To);
      }
      A->replaceAllUsesWith(To);
    } else {
      // Erase a user: its edges are severed in operand order.
      size_t Pick = R.below(static_cast<uint32_t>(Phis.size()));
      PhiInst *P = Phis[Pick];
      for (uint32_t I = 0; I != P->getNumOperands(); ++I)
        modelRemove(P->getOperand(I), P, I);
      Phis.erase(Phis.begin() + static_cast<long>(Pick));
      P->eraseFromParent();
    }
    for (size_t S = 0; S != Pool.size(); ++S) {
      std::span<const Use> Got = Pool[S]->uses();
      ASSERT_EQ(Got.size(), Model[S].size()) << "value " << S;
      for (size_t K = 0; K != Got.size(); ++K) {
        ASSERT_EQ(Got[K].TheUser, Model[S][K].TheUser) << S << "/" << K;
        ASSERT_EQ(Got[K].OperandIndex, Model[S][K].OperandIndex)
            << S << "/" << K;
      }
      Grew += Counts[S] <= Cap && Got.size() > Cap;
      Shrank += Counts[S] > Cap && Got.size() <= Cap;
      Counts[S] = Got.size();
    }
  }
  // The script did cross the inline capacity, both ways.
  EXPECT_GT(Grew, 10u);
  EXPECT_GT(Shrank, 10u);
}

// ---------------------------------------------------------------------------
// Dense value numbering.
// ---------------------------------------------------------------------------

/// Expects \p F numbered densely in layout order: its ids are exactly
/// 0..valueIdBound()-1, the arguments hold the first ones, and blocks and
/// instructions each take increasing ids in layout order.
void expectDenseLayoutIds(Function &F) {
  SCOPED_TRACE("@" + F.getName());
  std::vector<bool> Taken(F.valueIdBound());
  auto take = [&](const Value &V) {
    uint32_t Id = V.getValueId();
    ASSERT_LT(Id, Taken.size()) << V.getName();
    EXPECT_FALSE(Taken[Id]) << V.getName();
    Taken[Id] = true;
  };
  for (size_t I = 0; I != F.getNumArgs(); ++I) {
    EXPECT_EQ(F.getArg(I)->getValueId(), I);
    take(*F.getArg(I));
  }
  uint32_t LastBlock = 0, LastInst = 0;
  for (BasicBlock &BB : F) {
    EXPECT_GE(BB.getValueId(), LastBlock) << BB.getName();
    LastBlock = BB.getValueId();
    take(BB);
    for (Instruction &I : BB) {
      EXPECT_GE(I.getValueId(), LastInst) << I.getName();
      LastInst = I.getValueId();
      take(I);
    }
  }
  EXPECT_EQ(std::count(Taken.begin(), Taken.end(), true),
            static_cast<long>(Taken.size()))
      << "ids are not dense";
}

void buildNumberingKernels(Module &M) {
  buildDaxpyKernel(M);
  buildLoopSumKernel(M);
}

TEST(ValueIdTest, IRBuilderNumbersDenselyInLayoutOrder) {
  Context Ctx;
  Module M(Ctx, "m");
  buildNumberingKernels(M);
  for (const auto &F : M.functions())
    expectDenseLayoutIds(*F);
}

TEST(ValueIdTest, ParserNumbersDenselyInLayoutOrder) {
  Context Ctx;
  Module M(Ctx, "m");
  buildNumberingKernels(M);
  Context Ctx2;
  ParseResult R = parseModule(Ctx2, printModule(M));
  ASSERT_TRUE(R.M) << R.Error;
  for (const auto &F : R.M->functions())
    expectDenseLayoutIds(*F);
}

TEST(ValueIdTest, ReaderNumbersDenselyInLayoutOrder) {
  Context Ctx;
  Module M(Ctx, "m");
  buildNumberingKernels(M);
  Context Ctx2;
  proteus::BitcodeReadResult R =
      proteus::readBitcode(Ctx2, proteus::writeBitcode(M));
  ASSERT_TRUE(R.M) << R.Error;
  for (const auto &F : R.M->functions())
    expectDenseLayoutIds(*F);
}

TEST(ValueIdTest, ClonerNumbersDenselyInLayoutOrder) {
  Context Ctx;
  Module M(Ctx, "m");
  buildNumberingKernels(M);
  // Sparse the source first: the clone is numbered afresh.
  Function *Daxpy = M.getFunction("daxpy");
  BasicBlock &Entry = Daxpy->getEntryBlock();
  IRBuilder B(Ctx);
  B.setInsertPoint(&Entry.front());
  cast<Instruction>(B.createAdd(Daxpy->getArg(3), B.getInt32(2), "dead"))
      ->eraseFromParent();
  Context Ctx2;
  std::unique_ptr<Module> Clone = cloneModule(M, Ctx2, "m.clone");
  for (const auto &F : Clone->functions())
    expectDenseLayoutIds(*F);
  Module Dest(Ctx, "dest");
  expectDenseLayoutIds(*cloneFunctionInto(Dest, *Daxpy, "daxpy.copy"));
}

TEST(ValueIdTest, LaterValuesTakeIdsPastTheBoundAndErasingKeepsIt) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  const uint32_t Bound = F->valueIdBound();
  BasicBlock &Entry = F->getEntryBlock();
  Instruction *First = &Entry.front();

  // An instruction inserted mid-block takes the next id, not a layout slot.
  IRBuilder B(Ctx);
  B.setInsertPoint(First);
  auto *Late =
      cast<Instruction>(B.createAdd(F->getArg(3), B.getInt32(1), "late"));
  EXPECT_EQ(Late->getValueId(), Bound);
  BasicBlock *NewBB = F->createBlock("new", Ctx.getVoidTy());
  EXPECT_EQ(NewBB->getValueId(), Bound + 1);
  EXPECT_EQ(F->valueIdBound(), Bound + 2);

  // Moving keeps the id; erasing leaves the bound alone.
  const uint32_t FirstId = First->getValueId();
  First->moveBefore(Late);
  EXPECT_EQ(First->getValueId(), FirstId);
  Late->eraseFromParent();
  F->eraseBlock(NewBB);
  EXPECT_EQ(F->valueIdBound(), Bound + 2);
  expectValid(*F);

  // A later value indexes past a table sized before it existed.
  ValueIdSet Before(*F);
  ValueIdMap<int> Table(*F, -1);
  B.setInsertPoint(First);
  Value *After = B.createAdd(F->getArg(3), B.getInt32(2), "after");
  EXPECT_EQ(After->getValueId(), Bound + 2);
  EXPECT_FALSE(Before.contains(After));
  EXPECT_EQ(Table.lookup(After), -1);
#ifdef _GLIBCXX_ASSERTIONS
  // Indexing, unlike lookup(), trusts the id: a stale one aborts.
  EXPECT_DEATH((void)Table[After], "");
#endif
}

TEST(VerifierTest, AcceptsWellFormedKernels) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  buildLoopSumKernel(M);
  expectValid(M);
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  F->createBlock("entry", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(&F->getEntryBlock());
  B.createThreadIdx(0);
  VerifyResult R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
}

TEST(VerifierTest, RejectsDominanceViolation) {
  Context Ctx;
  Module M(Ctx, "m");
  // A structurally broken function verified first must not hide k's
  // dominance error from verifyModule.
  M.createFunction("broken", Ctx.getVoidTy(), {}, {}, FunctionKind::Device)
      ->createBlock("empty", Ctx.getVoidTy());
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getI1Ty()},
                                 {"c"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *A = F->createBlock("a", Ctx.getVoidTy());
  BasicBlock *Bb = F->createBlock("b", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), A, Bb);
  B.setInsertPoint(A);
  Value *X = B.createAdd(B.getInt32(1), B.getInt32(2));
  B.createRet();
  B.setInsertPoint(Bb);
  // Uses X, which does not dominate this block.
  B.createAdd(X, B.getInt32(3));
  B.createRet();
  VerifyResult R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.message().find("dominate"), std::string::npos);
  std::string ModuleErrors = verifyModule(M).message();
  EXPECT_NE(ModuleErrors.find("@broken: block has no instructions"),
            std::string::npos);
  EXPECT_NE(ModuleErrors.find("@k: definition"), std::string::npos)
      << ModuleErrors;
}

TEST(VerifierTest, RejectsBadAnnotationIndex) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  F->setJitAnnotation(JitAnnotation{{0}}); // 1-based: 0 is invalid
  VerifyResult R = verifyModule(M);
  EXPECT_FALSE(R.ok());
  F->setJitAnnotation(JitAnnotation{{5}}); // only 4 args
  R = verifyModule(M);
  EXPECT_FALSE(R.ok());
}

TEST(VerifierTest, RejectsPhiPredMismatch) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Next = F->createBlock("next", Ctx.getVoidTy());
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createBr(Next);
  B.setInsertPoint(Next);
  PhiInst *Phi = B.createPhi(Ctx.getI32Ty());
  Phi->addIncoming(B.getInt32(1), Entry);
  Phi->addIncoming(B.getInt32(2), Next); // Next is not a predecessor
  B.createRet();
  VerifyResult R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
}

TEST(CloneTest, ModuleCloneIsDeepAndEquivalent) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  buildLoopSumKernel(M);
  auto Clone = cloneModule(M, Ctx, "m.clone");
  expectValid(*Clone);
  // Structural equality through the printer (module name differs).
  std::string A = printModule(M);
  std::string B = printModule(*Clone);
  A = A.substr(A.find('\n'));
  B = B.substr(B.find('\n'));
  EXPECT_EQ(A, B);
  // Mutating the clone leaves the original untouched.
  Function *CF = Clone->getFunction("daxpy");
  CF->getArg(0)->replaceAllUsesWith(Ctx.getDouble(2.0));
  EXPECT_NE(printFunction(*M.getFunction("daxpy")), printFunction(*CF));
}

TEST(CloneTest, ValueMapWithManyKeys) {
  Context Ctx;
  constexpr uint32_t N = 12000;
  auto key = [&](uint32_t K) { return Ctx.getInt32(K); };
  auto val = [&](uint32_t K) { return Ctx.getInt64(K); };
  // Grown from the default size, and sized up front: same contents.
  ValueMap Grown;
  ValueMap Sized(N);
  for (uint32_t K = 0; K != N; ++K) {
    Grown.insert(key(K), val(K));
    Sized.insert(key(K), val(K));
  }
  EXPECT_EQ(Grown.size(), N);
  EXPECT_EQ(Sized.size(), N);
  for (uint32_t K = 0; K != N; ++K) {
    ASSERT_EQ(Grown.lookup(key(K)), val(K)) << K;
    ASSERT_EQ(Sized.lookup(key(K)), val(K)) << K;
  }
  EXPECT_EQ(Grown.lookup(Ctx.getDouble(1.5)), nullptr);
  // insert replaces; lookups hand out values, so chained copies are safe.
  for (uint32_t K = 0; K < N; K += 3)
    Grown.insert(key(K), Grown.lookup(key(K + 1)));
  EXPECT_EQ(Grown.size(), N);
  EXPECT_EQ(Grown.lookup(key(3)), val(4));
  EXPECT_EQ(Grown.lookup(key(4)), val(4));
  Grown.clear();
  EXPECT_EQ(Grown.size(), 0u);
  EXPECT_EQ(Grown.lookup(key(7)), nullptr);
  Grown.insert(key(7), val(8));
  EXPECT_EQ(Grown.lookup(key(7)), val(8));
  EXPECT_EQ(Grown.size(), 1u);
}

TEST(ModuleTest, ModuleIdChangesWithContent) {
  Context Ctx;
  Module M1(Ctx, "m");
  buildDaxpyKernel(M1);
  uint64_t Id1 = M1.computeModuleId();

  Module M2(Ctx, "m");
  Function *F2 = buildDaxpyKernel(M2);
  EXPECT_EQ(Id1, M2.computeModuleId()) << "identical source, identical id";

  // A "source change" (different constant) must change the module id — this
  // is the property that keeps stale persistent-cache entries from being
  // reused (paper section 3.3).
  IRBuilder B(Ctx);
  B.setInsertPoint(&F2->getEntryBlock().front());
  B.createAdd(B.getInt32(41), B.getInt32(1));
  EXPECT_NE(Id1, M2.computeModuleId());
}

TEST(ModuleTest, GlobalsAndLookup) {
  Context Ctx;
  Module M(Ctx, "m");
  GlobalVariable *G =
      M.createGlobal("table", Ctx.getF64Ty(), 16, std::vector<uint8_t>());
  EXPECT_EQ(M.getGlobal("table"), G);
  EXPECT_EQ(G->sizeInBytes(), 128u);
  EXPECT_EQ(M.getGlobal("nope"), nullptr);
  EXPECT_EQ(M.kernels().size(), 0u);
  buildDaxpyKernel(M);
  EXPECT_EQ(M.kernels().size(), 1u);
}

} // namespace
