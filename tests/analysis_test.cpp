//===- analysis_test.cpp - kernel sanitizer tests ---------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The PIR kernel sanitizer: uniformity lattice unit tests, a seeded-bug
// corpus (divergent barriers, shared-scratch races, constant-index OOB,
// uninitialized reads — each with fixed-negative variants) asserting exact
// diagnostic counts, a zero-false-positive sweep over every HeCBench-sim
// and example kernel, the verifier's operand-shape checks, per-pass
// pipeline validation attribution, and the PROTEUS_ANALYZE /
// PROTEUS_VERIFY_EACH integration on the JIT launch path.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "RandomKernel.h"

#include "analysis/CriticalPath.h"
#include "analysis/KernelAnalyzer.h"
#include "analysis/Roofline.h"
#include "analysis/Uniformity.h"
#include "codegen/Target.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "transforms/Pass.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace pir;
using namespace pir::analysis;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

Function *makeVoidKernel(Module &M, const std::string &Name,
                         const std::vector<Type *> &Params,
                         const std::vector<std::string> &Names) {
  return M.createFunction(Name, M.getContext().getVoidTy(), Params, Names,
                          FunctionKind::Kernel);
}

Value *findNamed(Function &F, const std::string &Name) {
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (I.getName() == Name)
        return &I;
  return nullptr;
}

// ---------------------------------------------------------------------------
// UniformityAnalysis: the lattice and the sync-dependence machinery.
// ---------------------------------------------------------------------------

TEST(UniformityTest, CoreLatticeClassification) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy(), Ctx.getI32Ty()},
                               {"out", "n"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *Bid = B.createBlockIdx(0, "bid");
  Value *Bdim = B.createBlockDim(0, "bdim");
  Value *Gtid = B.createAdd(B.createMul(Bid, Bdim, "base"), Tid, "gtid");
  Value *TidP1 = B.createAdd(Tid, B.getInt32(1), "tidp1");
  Value *Tid2 = B.createMul(Tid, B.getInt32(2), "tid2");
  Value *TidSq = B.createMul(Tid, Tid, "tidsq");
  Value *TidMod = B.createSRem(Tid, B.getInt32(4), "tidmod");
  Value *Cmp = B.createICmp(ICmpPred::SLT, Tid, F->getArg(1), "cmp");
  Value *Atomic = B.createAtomicAdd(F->getArg(0), B.getInt32(1), "old");
  Value *TidF = B.createSIToFP(Tid, Ctx.getF64Ty(), "tidf");
  B.createRet();

  UniformityAnalysis UA(*F);
  EXPECT_EQ(UA.uniformity(Tid), Uniformity::Injective);
  EXPECT_EQ(UA.uniformity(Bid), Uniformity::Uniform);
  EXPECT_EQ(UA.uniformity(Bdim), Uniformity::Uniform);
  EXPECT_EQ(UA.uniformity(F->getArg(1)), Uniformity::Uniform);
  EXPECT_EQ(UA.uniformity(B.getInt32(7)), Uniformity::Uniform);
  // Injectivity survives the +uniform / *nonzero-constant idioms...
  EXPECT_EQ(UA.uniformity(Gtid), Uniformity::Injective);
  EXPECT_EQ(UA.uniformity(TidP1), Uniformity::Injective);
  EXPECT_EQ(UA.uniformity(Tid2), Uniformity::Injective);
  EXPECT_EQ(UA.uniformity(TidF), Uniformity::Injective);
  // ...but not arbitrary arithmetic.
  EXPECT_EQ(UA.uniformity(TidSq), Uniformity::Divergent);
  EXPECT_EQ(UA.uniformity(TidMod), Uniformity::Divergent);
  EXPECT_EQ(UA.uniformity(Cmp), Uniformity::Divergent);
  EXPECT_EQ(UA.uniformity(Atomic), Uniformity::Divergent);
  EXPECT_TRUE(UA.isThreadDependent(Tid));
  EXPECT_TRUE(UA.isInjective(Gtid));
  EXPECT_TRUE(UA.isUniform(Bid));
  EXPECT_TRUE(UA.divergentBranches().empty());
}

TEST(UniformityTest, LoopCounterPhiStaysUniform) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  UniformityAnalysis UA(*F);
  // The induction variable of a uniform-bound loop is uniform; the
  // accumulator is tainted through the per-thread load.
  Value *I = findNamed(*F, "i");
  Value *Acc = findNamed(*F, "acc");
  ASSERT_NE(I, nullptr);
  ASSERT_NE(Acc, nullptr);
  EXPECT_EQ(UA.uniformity(I), Uniformity::Uniform);
  EXPECT_EQ(UA.uniformity(Acc), Uniformity::Divergent);
  EXPECT_TRUE(UA.divergentBranches().empty());
}

TEST(UniformityTest, DivergentBranchMarksRegionAndJoinPhis) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *A = F->createBlock("a", Ctx.getVoidTy());
  BasicBlock *Bb = F->createBlock("b", Ctx.getVoidTy());
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *C = B.createICmp(ICmpPred::SLT, Tid, B.getInt32(16), "c");
  B.createCondBr(C, A, Bb);
  B.setInsertPoint(A);
  B.createBr(Join);
  B.setInsertPoint(Bb);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *Phi = B.createPhi(Ctx.getI32Ty(), "merged");
  Phi->addIncoming(B.getInt32(1), A);
  Phi->addIncoming(B.getInt32(2), Bb);
  B.createRet();
  expectValid(*F);

  UniformityAnalysis UA(*F);
  ASSERT_EQ(UA.divergentBranches().size(), 1u);
  EXPECT_TRUE(UA.isInDivergentRegion(A));
  EXPECT_TRUE(UA.isInDivergentRegion(Bb));
  EXPECT_FALSE(UA.isInDivergentRegion(Entry));
  EXPECT_FALSE(UA.isInDivergentRegion(Join));
  EXPECT_TRUE(UA.isDivergentJoin(Join));
  // Uniform incoming values still merge divergently: the selected value
  // depends on which side the thread took.
  EXPECT_EQ(UA.uniformity(Phi), Uniformity::Divergent);
}

TEST(UniformityTest, UniformBranchCreatesNoDivergence) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getI32Ty()}, {"n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *A = F->createBlock("a", Ctx.getVoidTy());
  BasicBlock *Bb = F->createBlock("b", Ctx.getVoidTy());
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *C = B.createICmp(ICmpPred::SLT, B.createBlockIdx(0, "bid"),
                          F->getArg(0), "c");
  B.createCondBr(C, A, Bb);
  B.setInsertPoint(A);
  B.createBr(Join);
  B.setInsertPoint(Bb);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *Phi = B.createPhi(Ctx.getI32Ty(), "merged");
  Phi->addIncoming(B.getInt32(1), A);
  Phi->addIncoming(B.getInt32(2), Bb);
  B.createRet();

  UniformityAnalysis UA(*F);
  EXPECT_TRUE(UA.divergentBranches().empty());
  EXPECT_FALSE(UA.isInDivergentRegion(A));
  EXPECT_FALSE(UA.isDivergentJoin(Join));
  EXPECT_EQ(UA.uniformity(Phi), Uniformity::Uniform);
}

// ---------------------------------------------------------------------------
// Barrier-divergence lint: the __syncthreads-in-divergent-branch deadlock.
// ---------------------------------------------------------------------------

/// if (tid < 16) { barrier; out[tid] = 1 } — the canonical deadlock.
Function *buildDivergentBarrierKernel(Module &M, bool BarrierInThen,
                                      const std::string &Name = "divbar") {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F =
      makeVoidKernel(M, Name, {Ctx.getPtrTy(), Ctx.getI32Ty()}, {"out", "n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *C = B.createICmp(ICmpPred::SLT, Tid, B.getInt32(16), "c");
  B.createCondBr(C, Then, Exit);

  B.setInsertPoint(Then);
  if (BarrierInThen)
    B.createBarrier();
  B.createStore(B.getInt32(1),
                B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "p"));
  B.createBr(Exit);

  B.setInsertPoint(Exit);
  if (!BarrierInThen)
    B.createBarrier(); // at the reconvergence join: safe
  B.createRet();
  return F;
}

TEST(BarrierLintTest, FlagsBarrierUnderDivergentBranch) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDivergentBarrierKernel(M, /*BarrierInThen=*/true);
  expectValid(*F);
  AnalysisReport R = analyzeKernel(*F);
  ASSERT_EQ(R.Diags.size(), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::DivergentBarrier), 1u);
  EXPECT_EQ(R.Diags[0].FunctionName, "divbar");
  EXPECT_EQ(R.Diags[0].BlockName, "then");
  // The diagnostic names the controlling branch and its condition.
  EXPECT_NE(R.Diags[0].Message.find("'entry'"), std::string::npos)
      << R.Diags[0].Message;
  EXPECT_NE(R.Diags[0].Message.find("%c"), std::string::npos)
      << R.Diags[0].Message;
}

TEST(BarrierLintTest, BarrierAtReconvergenceJoinIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDivergentBarrierKernel(M, /*BarrierInThen=*/false);
  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(BarrierLintTest, BarrierUnderUniformBranchIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getI32Ty()}, {"n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *C = B.createICmp(ICmpPred::SLT, B.getInt32(0), F->getArg(0), "c");
  B.createCondBr(C, Then, Exit);
  B.setInsertPoint(Then);
  B.createBarrier(); // all threads agree on the uniform condition
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(BarrierLintTest, BarrierInUniformLoopIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getI32Ty()}, {"n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  Value *C = B.createICmp(ICmpPred::SLT, I, F->getArg(0), "c");
  B.createCondBr(C, Body, Exit);
  B.setInsertPoint(Body);
  B.createBarrier(); // every thread iterates the same uniform trip count
  I->addIncoming(B.createAdd(I, B.getInt32(1), "i2"), Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

// ---------------------------------------------------------------------------
// Shared-scratch race lint.
// ---------------------------------------------------------------------------

/// Kernel with a 64-slot i32 scratch buffer, a store indexed by \p StoreIdx
/// ("mod" = tid%4 divergent, "tid" injective), optionally a barrier between
/// the store and a subsequent load of slot 0, and the load's value written
/// out so the IR is plausible.
Function *buildScratchKernel(Module &M, bool DivergentStore,
                             bool BarrierBetween, bool UseAtomic = false) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "scratch", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 64, "buf");
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *Idx = DivergentStore ? B.createSRem(Tid, B.getInt32(4), "mod") : Tid;
  Value *P = B.createGep(Ctx.getI32Ty(), Buf, Idx, "p");
  if (UseAtomic)
    B.createAtomicAdd(P, B.getInt32(1), "old");
  else
    B.createStore(B.getInt32(1), P);
  if (BarrierBetween)
    B.createBarrier();
  Value *Q = B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q");
  Value *V = B.createLoad(Ctx.getI32Ty(), Q, "v");
  B.createStore(V, B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "outp"));
  B.createRet();
  return F;
}

TEST(SharedMemRaceTest, FlagsDivergentStoreAgainstLoad) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildScratchKernel(M, /*DivergentStore=*/true,
                                   /*BarrierBetween=*/false);
  expectValid(*F);
  AnalysisReport R = analyzeKernel(*F);
  ASSERT_EQ(R.Diags.size(), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::SharedMemRace), 1u);
  EXPECT_NE(R.Diags[0].Message.find("%buf"), std::string::npos)
      << R.Diags[0].Message;
}

TEST(SharedMemRaceTest, InjectiveIndexIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildScratchKernel(M, /*DivergentStore=*/false,
                                   /*BarrierBetween=*/false);
  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(SharedMemRaceTest, BarrierBetweenAccessesIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildScratchKernel(M, /*DivergentStore=*/true,
                                   /*BarrierBetween=*/true);
  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(SharedMemRaceTest, AtomicAccessesAreClean) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildScratchKernel(M, /*DivergentStore=*/true,
                                   /*BarrierBetween=*/false, /*UseAtomic=*/true);
  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(SharedMemRaceTest, EscapedBufferIsSkipped) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  // A device helper the buffer address is passed to: unknown aliasing, so
  // the lint must stay silent rather than guess.
  Function *Helper = M.createFunction("consume", Ctx.getVoidTy(),
                                      {Ctx.getPtrTy()}, {"p"},
                                      FunctionKind::Device);
  B.setInsertPoint(Helper->createBlock("entry", Ctx.getVoidTy()));
  B.createRet();

  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 8, "buf");
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *Mod = B.createSRem(Tid, B.getInt32(2), "mod");
  B.createStore(B.getInt32(1), B.createGep(Ctx.getI32Ty(), Buf, Mod, "p"));
  Value *V = B.createLoad(Ctx.getI32Ty(),
                          B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q"),
                          "v");
  B.createStore(V, F->getArg(0));
  B.createCall(Helper, {Buf});
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

// ---------------------------------------------------------------------------
// Constant-index out-of-bounds lint.
// ---------------------------------------------------------------------------

TEST(SharedMemOOBTest, FlagsOverrunAndNegativeOffset) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getF64Ty(), 8, "buf"); // 64 bytes
  B.createStore(B.getDouble(1.0),
                B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(0), "p0"));
  // One past the end: byte offset 64, width 8, size 64.
  B.createStore(B.getDouble(2.0),
                B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(8), "p8"));
  // Negative constant index.
  Value *V = B.createLoad(
      Ctx.getF64Ty(),
      B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(static_cast<uint32_t>(-1)),
                  "pneg"),
      "v");
  B.createStore(V, F->getArg(0));
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_EQ(R.count(LintKind::SharedMemOOB), 2u) << R.message();
  EXPECT_EQ(R.Diags.size(), 2u) << R.message();
}

TEST(SharedMemOOBTest, ChainedGepOffsetsAccumulate) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getF64Ty(), 8, "buf");
  B.createStore(B.getDouble(0.0),
                B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(0), "p0"));
  // gep(gep(buf, 4), 4): total byte offset 64 — out of a 64-byte buffer.
  Value *Mid = B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(4), "mid");
  Value *End = B.createGep(Ctx.getF64Ty(), Mid, B.getInt32(4), "end");
  Value *V = B.createLoad(Ctx.getF64Ty(), End, "v");
  B.createStore(V, F->getArg(0));
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_EQ(R.count(LintKind::SharedMemOOB), 1u) << R.message();
  EXPECT_EQ(R.Diags.size(), 1u) << R.message();
}

TEST(SharedMemOOBTest, InBoundsAccessesAreClean) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getF64Ty(), 8, "buf");
  B.createStore(B.getDouble(1.0),
                B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(0), "p0"));
  B.createStore(B.getDouble(2.0),
                B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(7), "p7"));
  Value *V = B.createLoad(
      Ctx.getF64Ty(), B.createGep(Ctx.getF64Ty(), Buf, B.getInt32(3), "p3"),
      "v");
  B.createStore(V, F->getArg(0));
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

// ---------------------------------------------------------------------------
// Uninitialized-load lint (may-stored union dataflow).
// ---------------------------------------------------------------------------

TEST(UninitLoadTest, FlagsLoadBeforeAnyStore) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 4, "buf");
  Value *V = B.createLoad(Ctx.getI32Ty(),
                          B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "p"),
                          "v");
  B.createStore(V, F->getArg(0));
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  ASSERT_EQ(R.Diags.size(), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::UninitializedLoad), 1u);
  EXPECT_NE(R.Diags[0].Message.find("%buf"), std::string::npos);
}

TEST(UninitLoadTest, StoreThenLoadIsClean) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy()}, {"out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 4, "buf");
  Value *P = B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "p");
  B.createStore(B.getInt32(9), P);
  B.createStore(B.createLoad(Ctx.getI32Ty(), P, "v"), F->getArg(0));
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(UninitLoadTest, StoreOnOnePathSuppressesByDesign) {
  // May-analysis: a store on *some* path to the load keeps the lint quiet
  // (zero false positives beats path-sensitive completeness here).
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy(), Ctx.getI32Ty()},
                               {"out", "n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 4, "buf");
  Value *C = B.createICmp(ICmpPred::SLT, B.getInt32(0), F->getArg(1), "c");
  B.createCondBr(C, Then, Exit);
  B.setInsertPoint(Then);
  B.createStore(B.getInt32(1),
                B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "p"));
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  Value *V = B.createLoad(Ctx.getI32Ty(),
                          B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q"),
                          "v");
  B.createStore(V, F->getArg(0));
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(UninitLoadTest, StoreInLoopBodyCoversExitLoad) {
  // The Wsm5-style fill-then-read pattern: stores in the loop body must
  // reach the load after the loop through the header's back edge.
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy(), Ctx.getI32Ty()},
                               {"out", "n"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 8, "buf");
  B.createBr(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  Value *C = B.createICmp(ICmpPred::SLT, I, F->getArg(1), "c");
  B.createCondBr(C, Body, Exit);
  B.setInsertPoint(Body);
  B.createStore(I, B.createGep(Ctx.getI32Ty(), Buf, I, "p"));
  I->addIncoming(B.createAdd(I, B.getInt32(1), "i2"), Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  Value *V = B.createLoad(Ctx.getI32Ty(),
                          B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q"),
                          "v");
  B.createStore(V, F->getArg(0));
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(UninitLoadTest, ArgumentPointerLoadsAreNotTracked) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "k", {Ctx.getPtrTy(), Ctx.getPtrTy()},
                               {"in", "out"});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *V = B.createLoad(Ctx.getI32Ty(),
                          B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "p"),
                          "v");
  B.createStore(V, B.createGep(Ctx.getI32Ty(), F->getArg(1), Tid, "q"));
  B.createRet();

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_TRUE(R.clean()) << R.message();
}

// ---------------------------------------------------------------------------
// A kernel seeded with all four bug classes at once: exact counts.
// ---------------------------------------------------------------------------

TEST(MultiBugTest, ReportsEachSeededBugExactlyOnce) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = makeVoidKernel(M, "buggy", {Ctx.getPtrTy()}, {"out"});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 32, "buf");
  Value *Buf2 = B.createAlloca(Ctx.getI32Ty(), 16, "buf2");
  Value *Tid = B.createThreadIdx(0, "tid");
  // Bug 1: uninitialized read of buf2 (never stored).
  Value *U = B.createLoad(
      Ctx.getI32Ty(), B.createGep(Ctx.getI32Ty(), Buf2, B.getInt32(0), "u0"),
      "u");
  // Bug 2: divergent-index store racing the following load.
  Value *Mod = B.createSRem(Tid, B.getInt32(4), "mod");
  B.createStore(B.getInt32(1), B.createGep(Ctx.getI32Ty(), Buf, Mod, "p"));
  Value *W = B.createLoad(
      Ctx.getI32Ty(), B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q"),
      "w");
  // Bug 3: constant index one past the end.
  B.createStore(B.getInt32(2),
                B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(32), "pend"));
  B.createStore(B.createAdd(U, W, "uw"),
                B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "outp"));
  Value *C = B.createICmp(ICmpPred::SLT, Tid, B.getInt32(8), "c");
  B.createCondBr(C, Then, Exit);

  // Bug 4: barrier under the divergent branch.
  B.setInsertPoint(Then);
  B.createBarrier();
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  expectValid(*F);

  AnalysisReport R = analyzeKernel(*F);
  EXPECT_EQ(R.count(LintKind::DivergentBarrier), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::SharedMemRace), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::SharedMemOOB), 1u) << R.message();
  EXPECT_EQ(R.count(LintKind::UninitializedLoad), 1u) << R.message();
  EXPECT_EQ(R.Diags.size(), 4u) << R.message();
}

// ---------------------------------------------------------------------------
// Zero-false-positive sweep: every healthy kernel in the tree lints clean.
// ---------------------------------------------------------------------------

TEST(SweepTest, HecbenchCorpusIsLintClean) {
  for (const auto &Bench : hecbench::allBenchmarks()) {
    Context Ctx;
    std::unique_ptr<Module> M = Bench->buildModule(Ctx);
    AnalysisReport R = analyzeModule(*M);
    EXPECT_TRUE(R.clean())
        << "false positive(s) in benchmark " << Bench->name() << ":\n"
        << R.message();
  }
}

TEST(SweepTest, TestUtilKernelsAreLintClean) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  buildLoopSumKernel(M);
  AnalysisReport R = analyzeModule(M);
  EXPECT_TRUE(R.clean()) << R.message();
}

TEST(SweepTest, ExampleFilesAreLintClean) {
  for (const char *Name : {"saxpy.pir", "reduction.pir"}) {
    std::string Path = std::string(PROTEUS_EXAMPLES_DIR) + "/" + Name;
    auto Bytes = fs::readFile(Path);
    ASSERT_TRUE(Bytes.has_value()) << Path;
    Context Ctx;
    ParseResult PR = parseModule(Ctx, std::string(Bytes->begin(), Bytes->end()));
    ASSERT_TRUE(static_cast<bool>(PR)) << PR.Error;
    AnalysisReport R = analyzeModule(*PR.M);
    EXPECT_TRUE(R.clean()) << Name << ":\n" << R.message();
  }
}

// ---------------------------------------------------------------------------
// Verifier operand-shape checks (built by corrupting valid IR, since the
// constructors assert on direct misuse).
// ---------------------------------------------------------------------------

struct CorruptibleKernel {
  Context Ctx;
  Module M{Ctx, "m"};
  Function *F = nullptr;
  IRBuilder B{Ctx};

  CorruptibleKernel() {
    F = M.createFunction("k", Ctx.getVoidTy(),
                         {Ctx.getPtrTy(), Ctx.getI32Ty()}, {"p", "n"},
                         FunctionKind::Kernel);
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  }

  void expectError(const std::string &Substr) {
    VerifyResult R = verifyFunction(*F);
    ASSERT_FALSE(R.ok()) << "expected verifier rejection: " << Substr;
    EXPECT_NE(R.message().find(Substr), std::string::npos) << R.message();
  }
};

TEST(VerifierExtraTest, RejectsNonPointerLoadAddress) {
  CorruptibleKernel K;
  Value *V = K.B.createLoad(K.Ctx.getI32Ty(), K.F->getArg(0), "v");
  K.B.createStore(V, K.F->getArg(0));
  K.B.createRet();
  cast<Instruction>(V)->setOperand(0, K.F->getArg(1)); // i32 as address
  K.expectError("load pointer operand must be pointer-typed");
}

TEST(VerifierExtraTest, RejectsNonPointerStoreAddress) {
  CorruptibleKernel K;
  K.B.createStore(K.B.getInt32(1), K.F->getArg(0));
  K.B.createRet();
  Instruction *St = &K.F->getEntryBlock().front();
  ASSERT_TRUE(isa<StoreInst>(St));
  St->setOperand(1, K.F->getArg(1));
  K.expectError("store pointer operand must be pointer-typed");
}

TEST(VerifierExtraTest, RejectsStoreTypeMismatchToAlloca) {
  CorruptibleKernel K;
  Value *Buf = K.B.createAlloca(K.Ctx.getI32Ty(), 4, "buf");
  // The constructor only checks the pointer shape; the pointee contract is
  // the verifier's job.
  K.B.createStore(K.B.getDouble(1.0), Buf);
  K.B.createRet();
  K.expectError("store value type does not match the allocated type");
}

TEST(VerifierExtraTest, RejectsNonPointerGepBase) {
  CorruptibleKernel K;
  Value *P = K.B.createGep(K.Ctx.getI32Ty(), K.F->getArg(0),
                           K.B.getInt32(1), "gep");
  Value *V = K.B.createLoad(K.Ctx.getI32Ty(), P, "v");
  K.B.createStore(V, K.F->getArg(0));
  K.B.createRet();
  cast<Instruction>(P)->setOperand(0, K.F->getArg(1));
  K.expectError("ptradd base operand must be pointer-typed");
}

TEST(VerifierExtraTest, RejectsNonI1BranchCondition) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getI32Ty()},
                                 {"n"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *A = F->createBlock("a", Ctx.getVoidTy());
  BasicBlock *Bb = F->createBlock("b", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *C = B.createICmp(ICmpPred::SLT, F->getArg(0), B.getInt32(4), "c");
  B.createCondBr(C, A, Bb);
  B.setInsertPoint(A);
  B.createRet();
  B.setInsertPoint(Bb);
  B.createRet();
  Entry->getTerminator()->setOperand(0, F->getArg(0)); // i32 condition
  VerifyResult R = verifyFunction(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("conditional branch condition must be i1"),
            std::string::npos)
      << R.message();
}

TEST(VerifierExtraTest, RejectsNonFunctionCallee) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *Helper = M.createFunction("helper", Ctx.getI32Ty(),
                                      {Ctx.getI32Ty()}, {"x"},
                                      FunctionKind::Device);
  B.setInsertPoint(Helper->createBlock("entry", Ctx.getVoidTy()));
  B.createRet(Helper->getArg(0));
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getPtrTy()}, {"out"},
                                 FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *V = B.createCall(Helper, {B.getInt32(3)}, "v");
  B.createStore(V, F->getArg(0));
  B.createRet();
  // A corrupted callee slot must be diagnosed, not cast<Function>'d.
  cast<Instruction>(V)->setOperand(0, Ctx.getInt32(7));
  VerifyResult R = verifyFunction(*F);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("call callee is not a function"),
            std::string::npos)
      << R.message();
}

// ---------------------------------------------------------------------------
// Per-pass pipeline validation: the PostPassHook seam attributes breakage
// to the offending pass by name.
// ---------------------------------------------------------------------------

/// A well-behaved pass that changes nothing.
struct IdentityPass final : FunctionPass {
  std::string name() const override { return "identity"; }
  bool run(Function &) override { return false; }
};

/// A deliberately broken pass: appends a second terminator to the entry
/// block, producing IR verifyFunction rejects.
struct EvilPass final : FunctionPass {
  std::string name() const override { return "evil"; }
  bool run(Function &F) override {
    Context &Ctx = F.getParent()->getContext();
    F.getEntryBlock().append(std::make_unique<RetInst>(Ctx.getVoidTy()));
    return true;
  }
};

TEST(PassHookTest, AttributesBreakageToOffendingPass) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  B.createRet();

  PassManager PM(/*MaxIterations=*/1);
  PM.addPass(std::make_unique<IdentityPass>());
  PM.addPass(std::make_unique<EvilPass>());
  std::vector<std::string> CleanPasses;
  std::string FirstBroken;
  PM.setPostPassHook([&](const std::string &PassName, Function &Fn) {
    if (!FirstBroken.empty())
      return;
    if (verifyFunction(Fn).ok())
      CleanPasses.push_back(PassName);
    else
      FirstBroken = PassName;
  });
  PM.run(*F);
  EXPECT_EQ(FirstBroken, "evil");
  ASSERT_EQ(CleanPasses.size(), 1u);
  EXPECT_EQ(CleanPasses[0], "identity");
}

// ---------------------------------------------------------------------------
// JIT launch-path integration: PROTEUS_ANALYZE gates launches on the
// *optimized* kernel; PROTEUS_VERIFY_EACH validates every pass.
// ---------------------------------------------------------------------------

struct JitRunResult {
  GpuError Err = GpuError::Success;
  std::string Message;
  JitRuntimeStats Stats;
};

/// Compiles \p M's single JIT-annotated kernel and launches it once through
/// the full AOT-extension + __jit_launch_kernel path.
JitRunResult runJitOnce(Module &M, const std::string &Symbol,
                        const JitConfig &JC, uint64_t OutBytes,
                        const std::vector<KernelArg> &ScalarTail) {
  JitRunResult Res;
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  EXPECT_TRUE(LP.ok()) << LP.error();
  DevicePtr Out = 0;
  EXPECT_EQ(gpuMalloc(Dev, &Out, OutBytes), GpuError::Success);
  std::vector<KernelArg> Args = {{Out}};
  Args.insert(Args.end(), ScalarTail.begin(), ScalarTail.end());
  Res.Err = LP.launch(Symbol, Dim3{1, 1, 1}, Dim3{32, 1, 1}, Args,
                      &Res.Message);
  Res.Stats = Jit.stats();
  return Res;
}

JitConfig memOnlyConfig() {
  JitConfig JC;
  JC.UsePersistentCache = false; // keep test runs hermetic
  return JC;
}

TEST(JitAnalyzeTest, ErrorModeRejectsDivergentBarrierLaunch) {
  Context Ctx;
  Module M(Ctx, "app");
  Function *F = buildDivergentBarrierKernel(M, /*BarrierInThen=*/true);
  F->setJitAnnotation(JitAnnotation{{2}});
  JitConfig JC = memOnlyConfig();
  JC.Analyze = JitConfig::AnalyzeMode::Error;
  JitRunResult R = runJitOnce(M, "divbar", JC, 32 * 4, {{32}});
  EXPECT_NE(R.Err, GpuError::Success);
  EXPECT_NE(R.Message.find("failed launch-time analysis"), std::string::npos)
      << R.Message;
  EXPECT_NE(R.Message.find("divergent-barrier"), std::string::npos)
      << R.Message;
  EXPECT_EQ(R.Stats.AnalysisRejects, 1u);
  EXPECT_GE(R.Stats.AnalysisDiagnostics, 1u);
  EXPECT_GT(R.Stats.AnalyzeSeconds, 0.0);
}

TEST(JitAnalyzeTest, WarnModeReportsAndStillLaunches) {
  Context Ctx;
  Module M(Ctx, "app");
  Function *F = buildDivergentBarrierKernel(M, /*BarrierInThen=*/true);
  F->setJitAnnotation(JitAnnotation{{2}});
  JitConfig JC = memOnlyConfig();
  JC.Analyze = JitConfig::AnalyzeMode::Warn; // the default, explicit here
  JitRunResult R = runJitOnce(M, "divbar", JC, 32 * 4, {{32}});
  EXPECT_EQ(R.Err, GpuError::Success) << R.Message;
  EXPECT_GE(R.Stats.AnalysisDiagnostics, 1u);
  EXPECT_EQ(R.Stats.AnalysisRejects, 0u);
  EXPECT_EQ(R.Stats.Compilations, 1u);
}

TEST(JitAnalyzeTest, OffModeSkipsTheStageEntirely) {
  Context Ctx;
  Module M(Ctx, "app");
  Function *F = buildDivergentBarrierKernel(M, /*BarrierInThen=*/true);
  F->setJitAnnotation(JitAnnotation{{2}});
  JitConfig JC = memOnlyConfig();
  JC.Analyze = JitConfig::AnalyzeMode::Off;
  JitRunResult R = runJitOnce(M, "divbar", JC, 32 * 4, {{32}});
  EXPECT_EQ(R.Err, GpuError::Success) << R.Message;
  EXPECT_EQ(R.Stats.AnalysisDiagnostics, 0u);
  EXPECT_EQ(R.Stats.AnalyzeSeconds, 0.0);
}

TEST(JitAnalyzeTest, ErrorModeAcceptsCleanKernel) {
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M); // annotates a (1) and n (4)
  JitConfig JC = memOnlyConfig();
  JC.Analyze = JitConfig::AnalyzeMode::Error;
  JC.VerifyEachPass = true; // the paranoid configuration, end to end
  JitRunResult Res;
  {
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    CompiledProgram Prog = aotCompile(M, AO);
    Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    ASSERT_TRUE(LP.ok()) << LP.error();
    DevicePtr X = 0, Y = 0;
    ASSERT_EQ(gpuMalloc(Dev, &X, 64 * 8), GpuError::Success);
    ASSERT_EQ(gpuMalloc(Dev, &Y, 64 * 8), GpuError::Success);
    std::vector<KernelArg> Args = {{sem::boxF64(3.0)}, {X}, {Y}, {64}};
    Res.Err = LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                        &Res.Message);
    Res.Stats = Jit.stats();
  }
  EXPECT_EQ(Res.Err, GpuError::Success) << Res.Message;
  EXPECT_EQ(Res.Stats.AnalysisDiagnostics, 0u);
  EXPECT_EQ(Res.Stats.AnalysisRejects, 0u);
  EXPECT_EQ(Res.Stats.VerifyFailures, 0u);
  EXPECT_GT(Res.Stats.AnalyzeSeconds, 0.0);
  EXPECT_GT(Res.Stats.VerifyEachSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Mode names.
// ---------------------------------------------------------------------------

TEST(JitConfigEnvTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(analyzeModeName(JitConfig::AnalyzeMode::Off), "off");
  EXPECT_STREQ(analyzeModeName(JitConfig::AnalyzeMode::Warn), "warn");
  EXPECT_STREQ(analyzeModeName(JitConfig::AnalyzeMode::Error), "error");
}

// ---------------------------------------------------------------------------
// Static roofline classifier.
// ---------------------------------------------------------------------------

using pir::analysis::BottleneckClass;
using pir::analysis::KernelStaticProfile;
using pir::analysis::RegPressureFeedback;
using pir::analysis::RooflineReport;

/// Kernel with arithmetic intensity exactly 2 FLOPs/byte: one 8-byte load
/// and one 8-byte store against 32 chained FAdds per thread. AI = 2 sits
/// under amdgcn-sim's ridge (~3.26, packed FP32) and above nvptx-sim's
/// (~0.88) — the classification genuinely depends on the target.
Function *buildAi2Kernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Function *F = M.createFunction("ai2", Ctx.getVoidTy(),
                                 {Ctx.getPtrTy(), Ctx.getPtrTy()},
                                 {"in", "out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Gtid = B.createGlobalThreadIdX();
  Value *V = B.createLoad(F64, B.createGep(F64, F->getArg(0), Gtid), "v");
  for (int K = 0; K != 32; ++K)
    V = B.createFAdd(V, B.getDouble(1.5));
  B.createStore(V, B.createGep(F64, F->getArg(1), Gtid));
  B.createRet();
  return F;
}

/// Kernel with one constant-trip loop holding a single FAdd, so the body's
/// FLOP contribution is exactly Trip.
Function *buildTripKernel(Module &M, uint32_t Trip) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Type *I32 = Ctx.getI32Ty();
  Function *F = M.createFunction("trip", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createBr(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(I32, "i");
  PhiInst *Acc = B.createPhi(F64, "acc");
  I->addIncoming(B.getInt32(0), Entry);
  Acc->addIncoming(B.getDouble(0.0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I,
                              B.getInt32(static_cast<int32_t>(Trip))),
                 Body, Exit);
  B.setInsertPoint(Body);
  Value *Acc2 = B.createFAdd(Acc, B.getDouble(1.5), "acc2");
  Value *I2 = B.createAdd(I, B.getInt32(1), "i2");
  I->addIncoming(I2, Body);
  Acc->addIncoming(Acc2, Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createStore(Acc, B.createGep(F64, F->getArg(0), Gtid));
  B.createRet();
  return F;
}

void expectProfilesEqual(const KernelStaticProfile &A,
                         const KernelStaticProfile &B) {
  EXPECT_DOUBLE_EQ(A.Flops, B.Flops);
  EXPECT_DOUBLE_EQ(A.IntOps, B.IntOps);
  EXPECT_DOUBLE_EQ(A.BytesLoaded, B.BytesLoaded);
  EXPECT_DOUBLE_EQ(A.BytesStored, B.BytesStored);
  EXPECT_DOUBLE_EQ(A.UniformBytesLoaded, B.UniformBytesLoaded);
  EXPECT_DOUBLE_EQ(A.UniformBytesStored, B.UniformBytesStored);
  EXPECT_DOUBLE_EQ(A.Transcendentals, B.Transcendentals);
  EXPECT_DOUBLE_EQ(A.Divides, B.Divides);
  EXPECT_DOUBLE_EQ(A.Atomics, B.Atomics);
  EXPECT_DOUBLE_EQ(A.Branches, B.Branches);
  EXPECT_DOUBLE_EQ(A.Barriers, B.Barriers);
  EXPECT_EQ(A.AllocaBytes, B.AllocaBytes);
  EXPECT_EQ(A.UnknownTripLoops, B.UnknownTripLoops);
}

TEST(RooflineTest, ProfileIsDeterministic) {
  KernelStaticProfile P1, P2;
  {
    Context Ctx;
    Module M(Ctx, "m");
    P1 = pir::analysis::computeStaticProfile(*buildDaxpyKernel(M));
  }
  {
    Context Ctx;
    Module M(Ctx, "m");
    P2 = pir::analysis::computeStaticProfile(*buildDaxpyKernel(M));
  }
  expectProfilesEqual(P1, P2);
}

TEST(RooflineTest, ArchSensitiveClassification) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildAi2Kernel(M);
  KernelStaticProfile P = pir::analysis::computeStaticProfile(*F);
  EXPECT_DOUBLE_EQ(P.Flops, 32.0);
  EXPECT_DOUBLE_EQ(P.BytesLoaded + P.BytesStored, 16.0);

  RooflineReport Amd =
      pir::analysis::classifyProfile(P, getAmdGcnSimTarget());
  RooflineReport Nv = pir::analysis::classifyProfile(P, getNvPtxSimTarget());
  EXPECT_DOUBLE_EQ(Amd.ArithmeticIntensity, 2.0);
  EXPECT_DOUBLE_EQ(Nv.ArithmeticIntensity, 2.0);
  // Same kernel, same intensity — opposite sides of the two ridges.
  EXPECT_GT(getAmdGcnSimTarget().ridgeFlopsPerByte(), 2.0 / 0.75);
  EXPECT_LT(getNvPtxSimTarget().ridgeFlopsPerByte(), 2.0 / 1.25);
  EXPECT_EQ(Amd.Class, BottleneckClass::MemoryBound) << Amd.Reason;
  EXPECT_EQ(Nv.Class, BottleneckClass::ComputeBound) << Nv.Reason;
}

TEST(RooflineTest, DaxpyIsMemoryBoundEverywhere) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  for (const TargetInfo *T :
       {&getAmdGcnSimTarget(), &getNvPtxSimTarget()}) {
    RooflineReport R = pir::analysis::classifyKernel(*F, *T);
    EXPECT_EQ(R.Class, BottleneckClass::MemoryBound)
        << T->Name << ": " << R.Reason;
    EXPECT_LT(R.ArithmeticIntensity, 0.75 * T->ridgeFlopsPerByte());
  }
}

TEST(RooflineTest, ConstantLoopTripWeightsTheBody) {
  Context Ctx;
  Module M8(Ctx, "m8"), M16(Ctx, "m16");
  KernelStaticProfile P8 =
      pir::analysis::computeStaticProfile(*buildTripKernel(M8, 8));
  KernelStaticProfile P16 =
      pir::analysis::computeStaticProfile(*buildTripKernel(M16, 16));
  // The loop body holds exactly one FAdd, so doubling the constant trip
  // count adds exactly 8 weighted FLOPs.
  EXPECT_DOUBLE_EQ(P16.Flops - P8.Flops, 8.0);
  EXPECT_EQ(P8.UnknownTripLoops, 0u);
  EXPECT_EQ(P16.UnknownTripLoops, 0u);
}

TEST(RooflineTest, RegPressureFeedbackOverridesRoofline) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildAi2Kernel(M);
  KernelStaticProfile P = pir::analysis::computeStaticProfile(*F);

  RegPressureFeedback Spilled;
  Spilled.RegsUsed = 32;
  Spilled.SpillSlots = 2;
  Spilled.SpillLoads = 4;
  Spilled.SpillStores = 2;
  Spilled.RegisterBudget = 32;
  RooflineReport R = pir::analysis::classifyProfile(
      P, getAmdGcnSimTarget(), &Spilled);
  EXPECT_EQ(R.Class, BottleneckClass::RegPressureBound) << R.Reason;
  EXPECT_NE(R.Reason.find("spill"), std::string::npos) << R.Reason;

  // Saturating the budget without spilling is still pressure-bound.
  RegPressureFeedback Saturated;
  Saturated.RegsUsed = 64;
  Saturated.RegisterBudget = 64;
  EXPECT_EQ(pir::analysis::classifyProfile(P, getAmdGcnSimTarget(),
                                           &Saturated)
                .Class,
            BottleneckClass::RegPressureBound);

  // Comfortable allocation falls through to the roofline position.
  RegPressureFeedback Comfortable;
  Comfortable.RegsUsed = 16;
  Comfortable.RegisterBudget = 64;
  EXPECT_EQ(pir::analysis::classifyProfile(P, getAmdGcnSimTarget(),
                                           &Comfortable)
                .Class,
            BottleneckClass::MemoryBound);
}

TEST(RooflineTest, UnderfilledLaunchIsLatencyBound) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildAi2Kernel(M);
  const TargetInfo &T = getAmdGcnSimTarget();
  // 64 threads cannot fill 24 CUs x 64 lanes.
  RooflineReport Small =
      pir::analysis::classifyKernel(*F, T, nullptr, 64);
  EXPECT_EQ(Small.Class, BottleneckClass::LatencyBound) << Small.Reason;
  // A machine-filling launch classifies by its roofline position again.
  RooflineReport Big = pir::analysis::classifyKernel(
      *F, T, nullptr, static_cast<uint64_t>(T.WaveSize) * T.NumCUs * 8);
  EXPECT_EQ(Big.Class, BottleneckClass::MemoryBound) << Big.Reason;
}

TEST(RooflineTest, EmptyKernelPerformsNoModeledWork) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("empty", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  B.createRet();
  RooflineReport R =
      pir::analysis::classifyKernel(*F, getAmdGcnSimTarget());
  EXPECT_EQ(R.Class, BottleneckClass::LatencyBound);
  EXPECT_NE(R.Reason.find("no modeled work"), std::string::npos)
      << R.Reason;
  EXPECT_DOUBLE_EQ(R.ArithmeticIntensity, 0.0);
}

TEST(RooflineTest, RandomKernelsClassifyDeterministically) {
  // The classifier is a pure function of (IR, target): rebuilding the same
  // seeded kernel must reproduce the profile and the verdict exactly, on
  // both simulated targets, across many shapes.
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    KernelStaticProfile P1, P2;
    BottleneckClass C1[2], C2[2];
    {
      Context Ctx;
      std::unique_ptr<Module> M = buildRandomKernel(Ctx, Seed);
      Function *F = M->getFunction("rk");
      ASSERT_NE(F, nullptr);
      P1 = pir::analysis::computeStaticProfile(*F);
      C1[0] = pir::analysis::classifyProfile(P1, getAmdGcnSimTarget()).Class;
      C1[1] = pir::analysis::classifyProfile(P1, getNvPtxSimTarget()).Class;
    }
    {
      Context Ctx;
      std::unique_ptr<Module> M = buildRandomKernel(Ctx, Seed);
      Function *F = M->getFunction("rk");
      ASSERT_NE(F, nullptr);
      P2 = pir::analysis::computeStaticProfile(*F);
      C2[0] = pir::analysis::classifyProfile(P2, getAmdGcnSimTarget()).Class;
      C2[1] = pir::analysis::classifyProfile(P2, getNvPtxSimTarget()).Class;
    }
    expectProfilesEqual(P1, P2);
    EXPECT_EQ(C1[0], C2[0]) << "seed " << Seed;
    EXPECT_EQ(C1[1], C2[1]) << "seed " << Seed;
    EXPECT_STRNE(pir::analysis::bottleneckClassName(C1[0]), "");
  }
}

TEST(RooflineTest, ClassNamesRoundTrip) {
  for (BottleneckClass C :
       {BottleneckClass::MemoryBound, BottleneckClass::ComputeBound,
        BottleneckClass::RegPressureBound, BottleneckClass::LatencyBound}) {
    std::optional<BottleneckClass> Back =
        pir::analysis::parseBottleneckClass(
            pir::analysis::bottleneckClassName(C));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, C);
  }
  EXPECT_FALSE(pir::analysis::parseBottleneckClass("Bound").has_value());
}

// ---------------------------------------------------------------------------
// Cross-stream critical path.
// ---------------------------------------------------------------------------

TEST(CriticalPathTest, CrossLaneGateAndSlack) {
  using proteus::analysis::TimelineSpan;
  // Lane 0: A [0,100) then B [100,150). Lane 1: C [110,310) — gated by A
  // (the latest span elsewhere finishing before C starts). Critical path
  // is A -> C = 300 ns; B carries 150 ns of slack.
  std::vector<TimelineSpan> Spans = {
      {"A", 1, 0, 100},
      {"B", 1, 100, 50},
      {"C", 2, 110, 200},
  };
  proteus::analysis::CriticalPathReport R =
      proteus::analysis::analyzeTimeline(Spans);
  EXPECT_EQ(R.CriticalPathNs, 300u);
  EXPECT_EQ(R.MakespanNs, 310u);
  ASSERT_EQ(R.Spans.size(), 3u);
  for (const proteus::analysis::SpanCriticality &S : R.Spans) {
    if (S.Span.Name == "B") {
      EXPECT_EQ(S.SlackNs, 150u);
      EXPECT_FALSE(S.OnCriticalPath);
    } else {
      EXPECT_EQ(S.SlackNs, 0u) << S.Span.Name;
      EXPECT_TRUE(S.OnCriticalPath) << S.Span.Name;
    }
  }
  std::vector<std::string> Critical = R.criticalNames();
  ASSERT_EQ(Critical.size(), 2u);
  EXPECT_EQ(Critical[0], "C") << "sorted by critical nanoseconds";
  EXPECT_EQ(Critical[1], "A");
}

TEST(CriticalPathTest, SingleLaneIsFullyCritical) {
  using proteus::analysis::TimelineSpan;
  std::vector<TimelineSpan> Spans = {
      {"k1", 7, 0, 40},
      {"k2", 7, 50, 60},
  };
  proteus::analysis::CriticalPathReport R =
      proteus::analysis::analyzeTimeline(Spans);
  // FIFO lane order chains the spans even across the idle gap.
  EXPECT_EQ(R.CriticalPathNs, 100u);
  EXPECT_EQ(R.MakespanNs, 110u);
  for (const proteus::analysis::SpanCriticality &S : R.Spans)
    EXPECT_TRUE(S.OnCriticalPath) << S.Span.Name;
  // Every nanosecond of the chain is critical, split across the two names.
  ASSERT_EQ(R.ByName.size(), 2u);
  double FractionSum = 0;
  for (const proteus::analysis::NameCriticality &N : R.ByName) {
    EXPECT_EQ(N.CriticalNs, N.TotalNs) << N.Name;
    FractionSum += N.CriticalityFraction;
  }
  EXPECT_DOUBLE_EQ(FractionSum, 1.0);
}

TEST(CriticalPathTest, ParsesOnlyDeviceLaneCompleteEvents) {
  const uint32_t Lane0 = trace::LaneTidBase;
  const uint32_t Lane1 = trace::LaneTidBase + 1;
  std::string Json =
      "{\"traceEvents\":["
      "{\"name\":\"k1\",\"cat\":\"lane\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
      std::to_string(Lane0) +
      ",\"ts\":0,\"dur\":100},"
      "{\"name\":\"k2\",\"cat\":\"lane\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
      std::to_string(Lane1) +
      ",\"ts\":100.5,\"dur\":50},"
      "{\"name\":\"host\",\"cat\":\"jit\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":5,\"ts\":0,\"dur\":500},"
      "{\"name\":\"mark\",\"ph\":\"i\",\"pid\":1,\"tid\":" +
      std::to_string(Lane0) + ",\"ts\":10}"
      "],\"otherData\":{}}";
  std::vector<proteus::analysis::TimelineSpan> Spans;
  std::string Error;
  ASSERT_TRUE(proteus::analysis::parseTraceLanes(Json, Spans, Error))
      << Error;
  // Host spans and instant events are filtered; microseconds became
  // nanoseconds.
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[0].Name, "k1");
  EXPECT_EQ(Spans[0].StartNs, 0u);
  EXPECT_EQ(Spans[0].DurNs, 100000u);
  EXPECT_EQ(Spans[1].Name, "k2");
  EXPECT_EQ(Spans[1].StartNs, 100500u);
  EXPECT_EQ(Spans[1].DurNs, 50000u);

  ASSERT_FALSE(proteus::analysis::parseTraceLanes("not json", Spans, Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
