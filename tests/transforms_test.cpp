//===- transforms_test.cpp - optimization pass tests ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Each pass is checked two ways: (1) targeted structural expectations, and
// (2) differential execution — the pass must preserve the reference
// interpreter's observable behaviour (memory image) on concrete inputs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "transforms/CSE.h"
#include "transforms/DCE.h"
#include "transforms/InstCombine.h"
#include "transforms/Inliner.h"
#include "transforms/LICM.h"
#include "transforms/LoopInfo.h"
#include "transforms/LoopUnroll.h"
#include "transforms/Mem2Reg.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SimplifyCFG.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace pir;
using namespace proteus;
using namespace proteus_test;

namespace {

size_t countInstructions(Function &F) {
  size_t N = 0;
  for (BasicBlock &BB : F)
    N += BB.size();
  return N;
}

size_t countKind(Function &F, ValueKind K) {
  size_t N = 0;
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (I.getKind() == K)
        ++N;
  return N;
}

/// Runs loopsum through the interpreter over a fresh memory image.
std::vector<uint8_t> runLoopSum(Function &F, uint32_t Iters,
                                bool ArgsIncludeN = true) {
  constexpr uint32_t N = 8;
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  for (uint32_t I = 0; I != N; ++I)
    In[I] = 0.5 + I;
  std::vector<uint64_t> Args = {0, N * sizeof(double)};
  if (ArgsIncludeN)
    Args.push_back(Iters);
  interpretLaunch(F, Args, Mem, 1, N);
  return Mem;
}

TEST(InstCombineTest, FoldsConstantExpressions) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *C = B.createFAdd(B.createFMul(B.getDouble(3.0), B.getDouble(4.0)),
                          B.getDouble(1.0));
  B.createStore(C, F->getArg(0));
  B.createRet();

  InstCombinePass().run(*F);
  expectValid(*F);
  // fmul and fadd must both be folded: only store+ret remain.
  EXPECT_EQ(countInstructions(*F), 2u);
  auto *St = cast<StoreInst>(&F->getEntryBlock().front());
  auto *Folded = dyn_cast<ConstantFP>(St->getValue());
  ASSERT_NE(Folded, nullptr);
  EXPECT_DOUBLE_EQ(Folded->getValue(), 13.0);
}

TEST(InstCombineTest, AppliesIdentitiesAndStrengthReduction) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction(
      "k", Ctx.getVoidTy(), {Ctx.getI32Ty(), Ctx.getPtrTy()}, {"a", "out"},
      FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *A = F->getArg(0);
  Value *V = B.createAdd(A, B.getInt32(0));    // -> a
  V = B.createMul(V, B.getInt32(8));           // -> shl a, 3
  V = B.createUDiv(V, B.getInt32(4));          // -> lshr _, 2
  V = B.createURem(V, B.getInt32(16));         // -> and _, 15
  B.createStore(V, F->getArg(1));
  B.createRet();

  InstCombinePass().run(*F);
  expectValid(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Mul), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::UDiv), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::URem), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::Shl), 1u);
  EXPECT_EQ(countKind(*F, ValueKind::LShr), 1u);
  EXPECT_EQ(countKind(*F, ValueKind::And), 1u);
}

TEST(InstCombineTest, ExpandsPowBySmallInteger) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getF64Ty(), Ctx.getPtrTy()},
                                 {"x", "out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *P = B.createPow(F->getArg(0), B.getDouble(3.0));
  B.createStore(P, F->getArg(1));
  B.createRet();

  InstCombinePass().run(*F);
  expectValid(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Pow), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::FMul), 2u);
}

TEST(DCETest, RemovesDeadChainsKeepsEffects) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"p"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  // Dead chain.
  Value *D1 = B.createAdd(B.getInt32(1), B.getInt32(2));
  Value *D2 = B.createMul(D1, B.getInt32(3));
  B.createXor(D2, D2);
  // Live store must survive; dead load goes.
  B.createLoad(Ctx.getF64Ty(), F->getArg(0));
  B.createStore(B.getDouble(1.0), F->getArg(0));
  B.createRet();

  EXPECT_TRUE(DCEPass().run(*F));
  expectValid(*F);
  EXPECT_EQ(countInstructions(*F), 2u); // store + ret
}

TEST(SimplifyCFGTest, FoldsConstantBranchAndRemovesDeadBlock) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"p"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Dead = F->createBlock("dead", Ctx.getVoidTy());
  BasicBlock *Live = F->createBlock("live", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createCondBr(Ctx.getTrue(), Live, Dead);
  B.setInsertPoint(Dead);
  B.createStore(B.getDouble(666.0), F->getArg(0));
  B.createBr(Live);
  B.setInsertPoint(Live);
  PhiInst *Phi = B.createPhi(Ctx.getF64Ty(), "v");
  Phi->addIncoming(B.getDouble(1.0), Entry);
  Phi->addIncoming(B.getDouble(2.0), Dead);
  B.createStore(Phi, F->getArg(0));
  B.createRet();

  EXPECT_TRUE(SimplifyCFGPass().run(*F));
  expectValid(*F);
  // Everything merges into one block; the phi resolves to 1.0.
  EXPECT_EQ(F->size(), 1u);
  EXPECT_EQ(countKind(*F, ValueKind::Phi), 0u);
  auto *St = cast<StoreInst>(&F->getEntryBlock().front());
  EXPECT_DOUBLE_EQ(cast<ConstantFP>(St->getValue())->getValue(), 1.0);
}

TEST(CSETest, DeduplicatesAcrossDominatedBlocks) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getPtrTy()},
                                 {"a", "p"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Next = F->createBlock("next", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *E1 = B.createMul(F->getArg(0), F->getArg(0));
  B.createStore(E1, F->getArg(1));
  B.createBr(Next);
  B.setInsertPoint(Next);
  Value *E2 = B.createMul(F->getArg(0), F->getArg(0)); // same expression
  Value *E3 = B.createMul(F->getArg(0), F->getArg(0)); // and again
  Value *S = B.createAdd(E2, E3);
  B.createStore(S, F->getArg(1));
  B.createRet();

  EXPECT_TRUE(CSEPass().run(*F));
  expectValid(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Mul), 1u);
}

TEST(CSETest, NormalizesCommutativeOperands) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getI32Ty(),
                                  Ctx.getPtrTy()},
                                 {"a", "b", "p"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *X = B.createAdd(F->getArg(0), F->getArg(1));
  Value *Y = B.createAdd(F->getArg(1), F->getArg(0)); // commuted duplicate
  B.createStore(B.createMul(X, Y), F->getArg(2));
  B.createRet();

  EXPECT_TRUE(CSEPass().run(*F));
  EXPECT_EQ(countKind(*F, ValueKind::Add), 1u);
}

/// Counts instructions of kind \p K in \p BB.
size_t countKindIn(BasicBlock &BB, ValueKind K) {
  size_t N = 0;
  for (Instruction &I : BB)
    N += I.getKind() == K;
  return N;
}

TEST(CSETest, ScopesFollowALongDominatorChain) {
  // entry branches to a 1,200-block dominator chain c0 -> c1 -> ... and to
  // a sibling block s; both reach exit. Every chain block recomputes
  // a+b, b+a (commuted) and select(cnd, a, b), plus the previous block's
  // running sum v(i-1) = v(i-2) + (i-1), and defines its own v(i). All of
  // them must fold to the leaders in c0 and c(i-1), so up to one live
  // leader per block stays in the table. The sibling s is not dominated by
  // c0 and keeps its own a+b and select.
  constexpr unsigned Chain = 1200;
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getI32Ty(),
                                  Ctx.getI1Ty()},
                                 {"a", "b", "cnd"}, FunctionKind::Kernel);
  Value *A = F->getArg(0), *Bv = F->getArg(1), *Cnd = F->getArg(2);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  std::vector<BasicBlock *> C;
  for (unsigned I = 0; I != Chain; ++I)
    C.push_back(F->createBlock("c" + std::to_string(I), Ctx.getVoidTy()));
  BasicBlock *S = F->createBlock("s", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createCondBr(Cnd, C[0], S);
  std::vector<Value *> V;
  for (unsigned I = 0; I != Chain; ++I) {
    B.setInsertPoint(C[I]);
    B.createAdd(A, Bv);
    B.createAdd(Bv, A);
    B.createSelect(Cnd, A, Bv);
    if (I >= 1)
      B.createAdd(I >= 2 ? V[I - 2] : A, B.getInt32(I - 1));
    V.push_back(B.createAdd(I >= 1 ? V[I - 1] : A, B.getInt32(I)));
    B.createBr(I + 1 == Chain ? Exit : C[I + 1]);
  }
  B.setInsertPoint(S);
  B.createAdd(A, Bv);
  B.createAdd(Bv, A);
  B.createSelect(Cnd, A, Bv);
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();

  EXPECT_TRUE(CSEPass().run(*F));
  expectValid(*F);
  // c0 keeps a+b, the select and v0; every later block only its own v(i).
  EXPECT_EQ(countKindIn(*C[0], ValueKind::Add), 2u);
  EXPECT_EQ(countKindIn(*C[0], ValueKind::Select), 1u);
  for (unsigned I = 1; I != Chain; ++I) {
    ASSERT_EQ(C[I]->size(), 2u) << "block c" << I;
    EXPECT_EQ(&C[I]->front(), V[I]) << "block c" << I;
  }
  EXPECT_EQ(countKindIn(*S, ValueKind::Add), 1u);
  EXPECT_EQ(countKindIn(*S, ValueKind::Select), 1u);
  EXPECT_FALSE(CSEPass().run(*F));
}

TEST(Mem2RegTest, PromotesLocalsAndInsertsPhis) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  // if (flag) v = 1.0 else v = 2.0; out[0] = v
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI1Ty(), Ctx.getPtrTy()},
                                 {"flag", "out"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *T = F->createBlock("t", Ctx.getVoidTy());
  BasicBlock *E = F->createBlock("e", Ctx.getVoidTy());
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Slot = B.createAlloca(Ctx.getF64Ty(), 1, "v");
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createStore(B.getDouble(1.0), Slot);
  B.createBr(Join);
  B.setInsertPoint(E);
  B.createStore(B.getDouble(2.0), Slot);
  B.createBr(Join);
  B.setInsertPoint(Join);
  Value *V = B.createLoad(Ctx.getF64Ty(), Slot);
  B.createStore(V, F->getArg(1));
  B.createRet();

  EXPECT_TRUE(Mem2RegPass().run(*F));
  expectValid(*F);
  EXPECT_EQ(countKind(*F, ValueKind::Alloca), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::Phi), 1u);
  EXPECT_EQ(countKind(*F, ValueKind::Load), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::Store), 1u); // only the out-store

  // Behaviour check for both arms.
  for (bool Flag : {true, false}) {
    std::vector<uint8_t> Mem(8);
    IRInterpreter Interp(Mem);
    auto R = Interp.run(*F, {Flag ? 1ull : 0ull, 0}, ThreadGeometry{});
    ASSERT_TRUE(R.Ok) << R.Error;
    double Out;
    std::memcpy(&Out, Mem.data(), 8);
    EXPECT_DOUBLE_EQ(Out, Flag ? 1.0 : 2.0);
  }
}

TEST(Mem2RegTest, LeavesEscapingAllocasAlone) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Arr = B.createAlloca(Ctx.getF64Ty(), 4, "arr"); // multi-element
  Value *P = B.createGep(Ctx.getF64Ty(), Arr, B.getInt32(2));
  B.createStore(B.getDouble(7.0), P);
  B.createRet();
  EXPECT_FALSE(Mem2RegPass().run(*F));
  EXPECT_EQ(countKind(*F, ValueKind::Alloca), 1u);
}

TEST(InlinerTest, InlinesDeviceCallsPreservingBehaviour) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *Dev = M.createFunction("mad", Ctx.getF64Ty(),
                                   {Ctx.getF64Ty(), Ctx.getF64Ty()},
                                   {"x", "y"}, FunctionKind::Device);
  B.setInsertPoint(Dev->createBlock("entry", Ctx.getVoidTy()));
  B.createRet(B.createFAdd(B.createFMul(Dev->getArg(0), Dev->getArg(0)),
                           Dev->getArg(1)));

  Function *K = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(K->createBlock("entry", Ctx.getVoidTy()));
  Value *R1 = B.createCall(Dev, {B.getDouble(3.0), B.getDouble(1.0)});
  Value *R2 = B.createCall(Dev, {R1, B.getDouble(0.5)});
  B.createStore(R2, K->getArg(0));
  B.createRet();

  EXPECT_TRUE(InlinerPass().run(*K));
  expectValid(*K);
  EXPECT_EQ(countKind(*K, ValueKind::Call), 0u);

  std::vector<uint8_t> Mem(8);
  IRInterpreter Interp(Mem);
  auto R = Interp.run(*K, {0}, ThreadGeometry{});
  ASSERT_TRUE(R.Ok) << R.Error;
  double Out;
  std::memcpy(&Out, Mem.data(), 8);
  EXPECT_DOUBLE_EQ(Out, 100.5); // (3*3+1)^2 + 0.5
}

TEST(InlinerTest, HandlesMultipleReturnsWithPhi) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *Dev = M.createFunction("pick", Ctx.getF64Ty(),
                                   {Ctx.getI1Ty()}, {"c"},
                                   FunctionKind::Device);
  BasicBlock *DE = Dev->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *DT = Dev->createBlock("t", Ctx.getVoidTy());
  BasicBlock *DF = Dev->createBlock("f", Ctx.getVoidTy());
  B.setInsertPoint(DE);
  B.createCondBr(Dev->getArg(0), DT, DF);
  B.setInsertPoint(DT);
  B.createRet(B.getDouble(10.0));
  B.setInsertPoint(DF);
  B.createRet(B.getDouble(20.0));

  Function *K = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI1Ty(), Ctx.getPtrTy()},
                                 {"c", "out"}, FunctionKind::Kernel);
  B.setInsertPoint(K->createBlock("entry", Ctx.getVoidTy()));
  Value *R = B.createCall(Dev, {K->getArg(0)});
  B.createStore(R, K->getArg(1));
  B.createRet();

  EXPECT_TRUE(InlinerPass().run(*K));
  expectValid(*K);
  for (bool C : {true, false}) {
    std::vector<uint8_t> Mem(8);
    IRInterpreter Interp(Mem);
    auto Res = Interp.run(*K, {C ? 1ull : 0ull, 0}, ThreadGeometry{});
    ASSERT_TRUE(Res.Ok) << Res.Error;
    double Out;
    std::memcpy(&Out, Mem.data(), 8);
    EXPECT_DOUBLE_EQ(Out, C ? 10.0 : 20.0);
  }
}

TEST(LoopInfoTest, DetectsCanonicalLoopAndTripCount) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  // Specialize n := 12 so the trip count becomes constant.
  specializeArguments(*F, {{2, 12}});

  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  Loop *L = LI.loops()[0].get();
  EXPECT_NE(L->getPreheader(), nullptr);
  EXPECT_NE(L->getSingleLatch(), nullptr);
  EXPECT_NE(L->getDedicatedExit(), nullptr);
  auto TC = computeConstantTripCount(*L, 64);
  ASSERT_TRUE(TC.has_value());
  EXPECT_EQ(TC->Count, 12u);
}

TEST(LoopInfoTest, UnknownBoundHasNoTripCount) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_FALSE(computeConstantTripCount(*LI.loops()[0], 64).has_value());
}

TEST(LoopUnrollTest, FullyUnrollsSpecializedLoopPreservingResults) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  std::vector<uint8_t> Before = runLoopSum(*F, 9);

  specializeArguments(*F, {{2, 9}});
  EXPECT_TRUE(LoopUnrollPass().run(*F));
  expectValid(*F);
  // Loop is gone: no phis and no back edge.
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_EQ(LI.loops().size(), 0u);

  std::vector<uint8_t> After = runLoopSum(*F, 9, /*ArgsIncludeN=*/true);
  EXPECT_EQ(Before, After);
}

TEST(LoopUnrollTest, TripCountZeroCollapsesLoop) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  specializeArguments(*F, {{2, 0}});
  EXPECT_TRUE(LoopUnrollPass().run(*F));
  expectValid(*F);
  std::vector<uint8_t> Mem = runLoopSum(*F, 0);
  auto *Out = reinterpret_cast<double *>(Mem.data() + 8 * sizeof(double));
  for (int I = 0; I != 8; ++I)
    EXPECT_DOUBLE_EQ(Out[I], 0.0);
}

TEST(LoopUnrollTest, BodyPhiKeepsIncomingValueFromOutsideTheLoop) {
  // for (i = 0; i < 4; ++i) out[i] = i == 2 ? a : i; with the select as a
  // diamond whose join phi takes the argument a straight from outside.
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getPtrTy(), Ctx.getI32Ty()},
                                 {"out", "a"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Else = F->createBlock("else", Ctx.getVoidTy());
  BasicBlock *Latch = F->createBlock("latch", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, B.getInt32(4)), Body, Exit);
  B.setInsertPoint(Body);
  B.createCondBr(B.createICmp(ICmpPred::EQ, I, B.getInt32(2)), Then, Else);
  B.setInsertPoint(Then);
  B.createBr(Latch);
  B.setInsertPoint(Else);
  B.createBr(Latch);
  B.setInsertPoint(Latch);
  PhiInst *P = B.createPhi(Ctx.getI32Ty(), "p");
  P->addIncoming(F->getArg(1), Then);
  P->addIncoming(I, Else);
  B.createStore(P, B.createGep(Ctx.getI32Ty(), F->getArg(0), I));
  Value *Next = B.createAdd(I, B.getInt32(1), "i.next");
  B.createBr(Header);
  I->addIncoming(B.getInt32(0), Entry);
  I->addIncoming(Next, Latch);
  B.setInsertPoint(Exit);
  B.createRet();
  expectValid(*F);

  auto run = [&] {
    std::vector<uint8_t> Mem(4 * sizeof(int32_t));
    interpretLaunch(*F, {0, 7}, Mem, 1, 1);
    std::vector<int32_t> Out(4);
    std::memcpy(Out.data(), Mem.data(), Mem.size());
    return Out;
  };
  EXPECT_EQ(run(), (std::vector<int32_t>{0, 1, 7, 3}));
  EXPECT_TRUE(LoopUnrollPass().run(*F));
  expectValid(*F);
  EXPECT_EQ(run(), (std::vector<int32_t>{0, 1, 7, 3}));
}

TEST(LoopUnrollTest, RespectsSizeThreshold) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  specializeArguments(*F, {{2, 40}});
  UnrollOptions Opts;
  Opts.MaxTripCount = 8; // 40 > 8: refuse
  EXPECT_FALSE(LoopUnrollPass(Opts).run(*F));
}

TEST(LICMTest, HoistsInvariantComputation) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  // for (i<n) out[i] += (a*a); the a*a must hoist to the preheader.
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getF64Ty(), Ctx.getPtrTy(),
                                  Ctx.getI32Ty()},
                                 {"a", "out", "n"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *H = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(H);
  B.setInsertPoint(H);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(2)), Body, Exit);
  B.setInsertPoint(Body);
  Value *AA = B.createFMul(F->getArg(0), F->getArg(0), "aa");
  Value *P = B.createGep(Ctx.getF64Ty(), F->getArg(1), I);
  Value *Old = B.createLoad(Ctx.getF64Ty(), P);
  B.createStore(B.createFAdd(Old, AA), P);
  Value *I2 = B.createAdd(I, B.getInt32(1));
  I->addIncoming(I2, Body);
  B.createBr(H);
  B.setInsertPoint(Exit);
  B.createRet();

  EXPECT_TRUE(LICMPass().run(*F));
  expectValid(*F);
  // aa moved to entry (the preheader).
  bool FoundInEntry = false;
  for (Instruction &Inst : F->getEntryBlock())
    if (Inst.getKind() == ValueKind::FMul)
      FoundInEntry = true;
  EXPECT_TRUE(FoundInEntry);
}

TEST(SpecializeTest, FoldsDesignatedArgumentsOnly) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  unsigned N = specializeArguments(*F, {{0, sem::boxF64(2.5)},
                                        {3, 1024}});
  EXPECT_EQ(N, 2u);
  EXPECT_EQ(F->getArg(0)->getNumUses(), 0u);
  EXPECT_EQ(F->getArg(3)->getNumUses(), 0u);
  EXPECT_GT(F->getArg(1)->getNumUses(), 0u);
  expectValid(*F);
}

TEST(SpecializeTest, LaunchBoundsDefaultsMinBlocksToOne) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  specializeLaunchBounds(*F, 256);
  ASSERT_TRUE(F->getLaunchBounds().has_value());
  EXPECT_EQ(F->getLaunchBounds()->MaxThreadsPerBlock, 256u);
  EXPECT_EQ(F->getLaunchBounds()->MinBlocksPerProcessor, 1u);
}

TEST(O3PipelineTest, SpecializedLoopSumCollapsesAndMatches) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  std::vector<uint8_t> Before = runLoopSum(*F, 7);
  size_t InstrsBefore = countInstructions(*F);

  specializeArguments(*F, {{2, 7}});
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*F, Opts);
  expectValid(*F);

  // Unrolled + folded: no branches left, single block.
  EXPECT_EQ(F->size(), 1u);
  std::vector<uint8_t> After = runLoopSum(*F, 7);
  EXPECT_EQ(Before, After);
  (void)InstrsBefore;
}

// Property sweep: for every trip count, O3 on the specialized kernel
// preserves the memory image produced by the unoptimized kernel.
class O3EquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(O3EquivalenceTest, LoopSumAllTripCounts) {
  uint32_t Iters = GetParam();
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  std::vector<uint8_t> Before = runLoopSum(*F, Iters);

  specializeArguments(*F, {{2, Iters}});
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*F, Opts);
  std::vector<uint8_t> After = runLoopSum(*F, Iters);
  EXPECT_EQ(Before, After);
}

INSTANTIATE_TEST_SUITE_P(TripCounts, O3EquivalenceTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           33u, 64u));

TEST(O3PipelineTest, DaxpyGuardBranchSurvivesWithoutSpecialization) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  runO3(*F);
  expectValid(*F);
  EXPECT_EQ(countKind(*F, ValueKind::CondBr), 1u);
}

} // namespace
