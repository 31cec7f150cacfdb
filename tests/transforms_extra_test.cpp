//===- transforms_extra_test.cpp - optimizer edge-case tests ----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Edge cases beyond the core pass tests: nested loop handling, safety
// limits of LICM/CSE, inliner control-flow shapes, canonicalization, pass
// statistics, and fixpoint behaviour of the pipeline manager.
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
#include "transforms/O3Pipeline.h"
#include "transforms/SimplifyCFG.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pir;
using namespace proteus;
using namespace proteus_test;

namespace {

size_t countKind(Function &F, ValueKind K) {
  size_t N = 0;
  for (BasicBlock &BB : F)
    for (Instruction &I : BB)
      if (I.getKind() == K)
        ++N;
  return N;
}

/// Builds sum over a 2-level nest: for i<ni: for j<nj: acc += in[gtid]*i*j.
Function *buildNestedLoopKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Type *I32 = Ctx.getI32Ty();
  Function *F = M.createFunction(
      "nest", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), I32, I32},
      {"in", "out", "ni", "nj"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{3, 4}});

  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *OH = F->createBlock("oh", Ctx.getVoidTy());
  BasicBlock *OB = F->createBlock("ob", Ctx.getVoidTy());
  BasicBlock *IH = F->createBlock("ih", Ctx.getVoidTy());
  BasicBlock *IB = F->createBlock("ib", Ctx.getVoidTy());
  BasicBlock *IL = F->createBlock("il", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  Value *Inv = B.createLoad(F64, B.createGep(F64, F->getArg(0), Gtid));
  B.createBr(OH);

  B.setInsertPoint(OH);
  PhiInst *I = B.createPhi(I32, "i");
  PhiInst *AccO = B.createPhi(F64, "acco");
  I->addIncoming(B.getInt32(0), Entry);
  AccO->addIncoming(B.getDouble(0.0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(2)), OB, Exit);

  B.setInsertPoint(OB);
  B.createBr(IH);

  B.setInsertPoint(IH);
  PhiInst *J = B.createPhi(I32, "j");
  PhiInst *AccI = B.createPhi(F64, "acci");
  J->addIncoming(B.getInt32(0), OB);
  AccI->addIncoming(AccO, OB);
  B.createCondBr(B.createICmp(ICmpPred::SLT, J, F->getArg(3)), IB, IL);

  B.setInsertPoint(IB);
  Value *Ifp = B.createSIToFP(I, F64);
  Value *Jfp = B.createSIToFP(J, F64);
  Value *Term = B.createFMul(Inv, B.createFMul(Ifp, Jfp));
  Value *AccI2 = B.createFAdd(AccI, Term);
  Value *J2 = B.createAdd(J, B.getInt32(1));
  J->addIncoming(J2, IB);
  AccI->addIncoming(AccI2, IB);
  B.createBr(IH);

  B.setInsertPoint(IL); // inner exit = outer latch
  Value *I2 = B.createAdd(I, B.getInt32(1));
  I->addIncoming(I2, IL);
  AccO->addIncoming(AccI, IL);
  B.createBr(OH);

  B.setInsertPoint(Exit);
  B.createStore(AccO, B.createGep(F64, F->getArg(1), Gtid));
  B.createRet();
  return F;
}

std::vector<uint8_t> runNest(Function &F, int32_t Ni, int32_t Nj) {
  constexpr uint32_t N = 4;
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  for (uint32_t K = 0; K != N; ++K)
    In[K] = 1.0 + K;
  std::vector<uint64_t> Args = {0, N * sizeof(double),
                                static_cast<uint32_t>(Ni),
                                static_cast<uint32_t>(Nj)};
  interpretLaunch(F, Args, Mem, 1, N);
  return Mem;
}

TEST(LoopInfoExtraTest, DetectsNestingAndDepths) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildNestedLoopKernel(M);
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  auto Loops = LI.loopsInnermostFirst();
  EXPECT_EQ(Loops[0]->depth(), 2u);
  EXPECT_EQ(Loops[1]->depth(), 1u);
  EXPECT_TRUE(Loops[1]->contains(Loops[0]->Header));
  EXPECT_EQ(Loops[0]->Parent, Loops[1]);
}

TEST(LoopUnrollExtraTest, FullyUnrollsNestAfterSpecialization) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildNestedLoopKernel(M);
  std::vector<uint8_t> Before = runNest(*F, 3, 4);

  specializeArguments(*F, {{2, 3}, {3, 4}});
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*F, Opts);
  // Both loops unroll: no phis remain.
  EXPECT_EQ(countKind(*F, ValueKind::Phi), 0u);
  std::vector<uint8_t> After = runNest(*F, 3, 4);
  EXPECT_EQ(Before, After);
}

TEST(LoopUnrollExtraTest, InnerOnlySpecializationUnrollsInnerLoop) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildNestedLoopKernel(M);
  std::vector<uint8_t> Before = runNest(*F, 5, 2);

  specializeArguments(*F, {{3, 2}}); // nj only
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*F, Opts);
  // The outer loop must survive (bound still symbolic).
  DominatorTree DT(*F);
  LoopInfo LI(*F, DT);
  EXPECT_EQ(LI.loops().size(), 1u);
  std::vector<uint8_t> After = runNest(*F, 5, 2);
  EXPECT_EQ(Before, After);
}

TEST(LICMExtraTest, DoesNotHoistDivisionOrLoads) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction(
      "k", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getI32Ty(), Ctx.getI32Ty()}, {"p", "d", "n"},
      FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *H = F->createBlock("h", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("b", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("x", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(H);
  B.setInsertPoint(H);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(2)), Body, Exit);
  B.setInsertPoint(Body);
  // Loop-invariant but non-speculatable: sdiv may trap semantics-wise; the
  // load may fault. Neither may move to the preheader (the loop may run
  // zero iterations).
  Value *Div = B.createSDiv(B.getInt32(100), F->getArg(1), "div");
  Value *Ld = B.createLoad(Ctx.getI32Ty(), F->getArg(0), "ld");
  Value *Sum = B.createAdd(Div, Ld);
  B.createStore(Sum, F->getArg(0));
  Value *I2 = B.createAdd(I, B.getInt32(1));
  I->addIncoming(I2, Body);
  B.createBr(H);
  B.setInsertPoint(Exit);
  B.createRet();

  LICMPass().run(*F);
  expectValid(*F);
  bool DivInBody = false, LdInBody = false;
  for (Instruction &Inst : *Body) {
    if (Inst.getKind() == ValueKind::SDiv)
      DivInBody = true;
    if (Inst.getKind() == ValueKind::Load)
      LdInBody = true;
  }
  EXPECT_TRUE(DivInBody) << "sdiv must not be hoisted";
  EXPECT_TRUE(LdInBody) << "loads must not be hoisted";
}

TEST(InlinerExtraTest, InlinesCalleeWithLoop) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  // Callee computes x^n by repeated multiplication in a loop.
  Function *Dev = M.createFunction("ipow", Ctx.getF64Ty(),
                                   {Ctx.getF64Ty(), Ctx.getI32Ty()},
                                   {"x", "n"}, FunctionKind::Device);
  {
    BasicBlock *E = Dev->createBlock("e", Ctx.getVoidTy());
    BasicBlock *H = Dev->createBlock("h", Ctx.getVoidTy());
    BasicBlock *Bd = Dev->createBlock("b", Ctx.getVoidTy());
    BasicBlock *X = Dev->createBlock("x", Ctx.getVoidTy());
    B.setInsertPoint(E);
    B.createBr(H);
    B.setInsertPoint(H);
    PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
    PhiInst *Acc = B.createPhi(Ctx.getF64Ty(), "acc");
    I->addIncoming(B.getInt32(0), E);
    Acc->addIncoming(B.getDouble(1.0), E);
    B.createCondBr(B.createICmp(ICmpPred::SLT, I, Dev->getArg(1)), Bd, X);
    B.setInsertPoint(Bd);
    Value *Acc2 = B.createFMul(Acc, Dev->getArg(0));
    Value *I2 = B.createAdd(I, B.getInt32(1));
    I->addIncoming(I2, Bd);
    Acc->addIncoming(Acc2, Bd);
    B.createBr(H);
    B.setInsertPoint(X);
    B.createRet(Acc);
  }
  Function *K = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(K->createBlock("entry", Ctx.getVoidTy()));
  Value *R = B.createCall(Dev, {B.getDouble(2.0), B.getInt32(10)});
  B.createStore(R, K->getArg(0));
  B.createRet();

  EXPECT_TRUE(InlinerPass().run(*K));
  expectValid(*K);
  EXPECT_EQ(countKind(*K, ValueKind::Call), 0u);

  std::vector<uint8_t> Mem(8);
  IRInterpreter Interp(Mem);
  auto Res = Interp.run(*K, {0}, ThreadGeometry{});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  double Out;
  std::memcpy(&Out, Mem.data(), 8);
  EXPECT_DOUBLE_EQ(Out, 1024.0);

  // And the whole pipeline folds 2^10 to a constant store.
  runO3(*K);
  EXPECT_EQ(countKind(*K, ValueKind::FMul), 0u) << printFunction(*K);
}

TEST(SimplifyCFGExtraTest, CollapsesBranchChains) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"p"}, FunctionKind::Kernel);
  // entry -> a -> b -> c -> d (straight chain of single-successor blocks).
  BasicBlock *Cur = F->createBlock("entry", Ctx.getVoidTy());
  B.setInsertPoint(Cur);
  for (int I = 0; I != 4; ++I) {
    BasicBlock *Next = F->createBlock("c" + std::to_string(I),
                                      Ctx.getVoidTy());
    B.createStore(B.getDouble(I), F->getArg(0));
    B.createBr(Next);
    B.setInsertPoint(Next);
    Cur = Next;
  }
  B.createRet();
  EXPECT_TRUE(SimplifyCFGPass().run(*F));
  EXPECT_EQ(F->size(), 1u);
  expectValid(*F);
}

TEST(InstCombineExtraTest, CanonicalizesConstantsRight) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getPtrTy()},
                                 {"a", "p"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  // 5 + a  ->  a + 5 (constant to the RHS), enabling later matches.
  Value *V = B.createAdd(B.getInt32(5), F->getArg(0));
  B.createStore(V, F->getArg(1));
  B.createRet();
  InstCombinePass().run(*F);
  auto *Add = cast<BinaryInst>(&F->getEntryBlock().front());
  EXPECT_EQ(Add->getKind(), ValueKind::Add);
  EXPECT_TRUE(isa<ConstantInt>(Add->getRHS()));
  EXPECT_EQ(Add->getLHS(), F->getArg(0));
}

TEST(CSEExtraTest, DoesNotMergeAcrossSiblingBranches) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI1Ty(), Ctx.getI32Ty(),
                                  Ctx.getPtrTy()},
                                 {"c", "a", "p"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *T = F->createBlock("t", Ctx.getVoidTy());
  BasicBlock *E = F->createBlock("e", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createStore(B.createMul(F->getArg(1), F->getArg(1)), F->getArg(2));
  B.createRet();
  B.setInsertPoint(E);
  // The same expression in a sibling (not dominated) block must stay.
  B.createStore(B.createMul(F->getArg(1), F->getArg(1)), F->getArg(2));
  B.createRet();
  EXPECT_FALSE(CSEPass().run(*F));
  EXPECT_EQ(countKind(*F, ValueKind::Mul), 2u);
}

TEST(PassManagerTest, CollectsStatisticsAndReachesFixpoint) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  specializeArguments(*F, {{2, 4}});

  PassManager PM(/*MaxIterations=*/4);
  PM.addPass(std::make_unique<InstCombinePass>());
  PM.addPass(std::make_unique<SimplifyCFGPass>());
  PM.addPass(std::make_unique<LoopUnrollPass>());
  PM.addPass(std::make_unique<DCEPass>());
  PM.run(*F);
  expectValid(*F);

  const std::vector<PassStatistics> &Stats = PM.statistics();
  ASSERT_EQ(Stats.size(), 4u);
  EXPECT_EQ(Stats[0].Name, "instcombine");
  EXPECT_EQ(Stats[2].Name, "loop-unroll");
  for (const PassStatistics &S : Stats) {
    EXPECT_GE(S.Invocations, 2u) << S.Name << ": fixpoint needs >= 2 runs";
    EXPECT_LE(S.ChangedInvocations, S.Invocations);
  }
  // The unroller fired exactly once (the loop exists only once).
  EXPECT_EQ(Stats[2].ChangedInvocations, 1u);
}

/// A pass that changes nothing and reports a change on the scripted
/// invocations of its own (0-based), logging every invocation as its name,
/// followed by its options if it has any.
class ScriptedPass : public FunctionPass {
public:
  ScriptedPass(std::string Name, std::vector<unsigned> ChangesOn,
               std::vector<std::string> &Log, std::string Options = "")
      : Name(std::move(Name)), Options(std::move(Options)),
        ChangesOn(std::move(ChangesOn)), Log(Log) {}
  std::string name() const override { return Name; }
  std::string options() const override { return Options; }
  bool run(Function &) override {
    Log.push_back(Name + Options);
    unsigned Call = Calls++;
    return std::find(ChangesOn.begin(), ChangesOn.end(), Call) !=
           ChangesOn.end();
  }

private:
  std::string Name;
  std::string Options;
  std::vector<unsigned> ChangesOn;
  std::vector<std::string> &Log;
  unsigned Calls = 0;
};

/// Runs one scripted pass per entry of \p Positions (its name, then any
/// options after a ':'), where the pass at each position reports a change
/// on the listed invocations of its own, and returns the invocation order.
std::vector<std::string>
scriptedSchedule(unsigned MaxIterations,
                 std::vector<std::vector<unsigned>> ChangesOn,
                 bool *Changed = nullptr,
                 const std::vector<std::string> &Positions = {"a", "b", "c",
                                                              "d"}) {
  std::vector<std::string> Log;
  PassManager PM(MaxIterations);
  ChangesOn.resize(Positions.size());
  for (size_t I = 0; I != Positions.size(); ++I) {
    size_t Colon = std::min(Positions[I].find(':'), Positions[I].size());
    PM.addPass(std::make_unique<ScriptedPass>(
        Positions[I].substr(0, Colon), ChangesOn[I], Log,
        Positions[I].substr(Colon)));
  }
  Context Ctx;
  Module M(Ctx, "m");
  bool C = PM.run(*buildLoopSumKernel(M));
  if (Changed)
    *Changed = C;
  return Log;
}

using Schedule = std::vector<std::string>;

TEST(PassManagerTest, StopsOnceEveryPassRerunsAfterTheLastChange) {
  bool Changed = true;
  // No change at all: one sweep.
  EXPECT_EQ(scriptedSchedule(3, {}, &Changed), (Schedule{"a", "b", "c", "d"}));
  EXPECT_FALSE(Changed);
  // b changes in sweep 1 only: c and d already saw the final IR, so the
  // second sweep stops after b.
  EXPECT_EQ(scriptedSchedule(3, {{}, {0}}, &Changed),
            (Schedule{"a", "b", "c", "d", "a", "b"}));
  EXPECT_TRUE(Changed);
  // The last pass changes: a full second sweep.
  EXPECT_EQ(scriptedSchedule(3, {{}, {}, {}, {0}}),
            (Schedule{"a", "b", "c", "d", "a", "b", "c", "d"}));
  // a changes in sweeps 1 and 2: the third sweep stops after a.
  EXPECT_EQ(scriptedSchedule(3, {{0, 1}}),
            (Schedule{"a", "b", "c", "d", "a", "b", "c", "d", "a"}));
}

TEST(PassManagerTest, MaxIterationsCapsTheSchedule) {
  // d changes every time: three sweeps, then the cap.
  Schedule Three = {"a", "b", "c", "d", "a", "b", "c", "d",
                    "a", "b", "c", "d"};
  EXPECT_EQ(scriptedSchedule(3, {{}, {}, {}, {0, 1, 2, 3, 4}}), Three);
  // One iteration runs each pass exactly once, changed or not.
  EXPECT_EQ(scriptedSchedule(1, {{0}, {0}, {0}, {0}}),
            (Schedule{"a", "b", "c", "d"}));
}

TEST(PassManagerTest, SkipsAPassAlreadyCleanOnTheCurrentIR) {
  // Positions a b a c: the second a follows a clean first a with no change
  // in between, so it is skipped, and the run stops once a, b and c are
  // all clean.
  const std::vector<std::string> ABAC = {"a", "b", "a", "c"};
  bool Changed = true;
  EXPECT_EQ(scriptedSchedule(3, {}, &Changed, ABAC),
            (Schedule{"a", "b", "c"}));
  EXPECT_FALSE(Changed);
  // b changes in sweep 1: the second a reruns, then only b is left to
  // confirm (the per-position rule would also rerun the first a).
  EXPECT_EQ(scriptedSchedule(3, {{}, {0}}, &Changed, ABAC),
            (Schedule{"a", "b", "a", "c", "b"}));
  EXPECT_TRUE(Changed);
  // b, then the second a change in sweep 1: in sweep 2 the first a
  // confirms a, so the second a is skipped.
  EXPECT_EQ(scriptedSchedule(3, {{}, {0}, {0}}, nullptr, ABAC),
            (Schedule{"a", "b", "a", "c", "a", "b"}));
  // A change resets every pass: c changes in sweeps 1 and 2, and each
  // time a, b and c must all run again.
  EXPECT_EQ(scriptedSchedule(3, {{}, {}, {}, {0, 1}}, nullptr, ABAC),
            (Schedule{"a", "b", "c", "a", "b", "c", "a", "b", "c"}));
}

TEST(PassManagerTest, OptionsArePartOfAPassIdentity) {
  // Same name, different options: two passes, both run.
  EXPECT_EQ(scriptedSchedule(3, {}, nullptr, {"u:1", "u:2"}),
            (Schedule{"u:1", "u:2"}));
  // Same name and options: one pass, the second position is skipped.
  EXPECT_EQ(scriptedSchedule(3, {}, nullptr, {"u:1", "u:1"}),
            (Schedule{"u:1"}));
  // The unroller's options are its limits.
  UnrollOptions Small;
  Small.MaxTripCount = 8;
  EXPECT_EQ(LoopUnrollPass().options(),
            LoopUnrollPass(UnrollOptions()).options());
  EXPECT_NE(LoopUnrollPass().options(), LoopUnrollPass(Small).options());
}

/// Deletes a dead instruction but reports no change.
class UntruthfulPass : public FunctionPass {
public:
  std::string name() const override { return "untruthful"; }
  bool run(Function &F) override {
    DCEPass().run(F);
    return false;
  }
};

TEST(PassManagerDeathTest, VerifyEachCatchesAnUnreportedChange) {
  auto RunLiar = [] {
    Context Ctx;
    Module M(Ctx, "m");
    IRBuilder B(Ctx);
    Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getI32Ty()},
                                   {"a"}, FunctionKind::Kernel);
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
    B.createAdd(F->getArg(0), F->getArg(0)); // dead
    B.createRet();
    PassManager PM;
    PM.setVerifyEach(true);
    PM.addPass(std::make_unique<UntruthfulPass>());
    PM.run(*F);
  };
  EXPECT_DEATH(RunLiar(), "pass 'untruthful' changed function @k but "
                          "reported no change");
}

/// Moves the first use of the first argument to the back of its use list
/// (the printed function is unchanged) but reports no change.
class UseReorderingPass : public FunctionPass {
public:
  std::string name() const override { return "reorder"; }
  bool run(Function &F) override {
    Use First = F.getArg(0)->uses()[0];
    First.TheUser->setOperand(First.OperandIndex, F.getArg(1));
    First.TheUser->setOperand(First.OperandIndex, F.getArg(0));
    return false;
  }
};

TEST(PassManagerDeathTest, VerifyEachCatchesAnUnreportedUseReordering) {
  auto RunLiar = [] {
    Context Ctx;
    Module M(Ctx, "m");
    IRBuilder B(Ctx);
    Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                   {Ctx.getI32Ty(), Ctx.getI32Ty(),
                                    Ctx.getPtrTy()},
                                   {"a", "b", "p"}, FunctionKind::Kernel);
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
    B.createStore(B.createAdd(F->getArg(0), F->getArg(1)), F->getArg(2));
    B.createStore(F->getArg(0), F->getArg(2));
    B.createRet();
    PassManager PM;
    PM.setVerifyEach(true);
    PM.addPass(std::make_unique<UseReorderingPass>());
    PM.run(*F);
  };
  EXPECT_DEATH(RunLiar(), "pass 'reorder' changed function @k but "
                          "reported no change");
}

TEST(SpecializeExtraTest, PointerArgumentFoldsToConstantAddress) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  // Fold the x pointer (index 1 zero-based) to a concrete device address.
  specializeArguments(*F, {{1, 0x1000}});
  bool FoundConstPtr = false;
  for (BasicBlock &BB : *F)
    for (Instruction &I : BB)
      for (Value *Op : I.operands())
        if (auto *CP = dyn_cast<ConstantPtr>(Op))
          FoundConstPtr |= CP->getAddress() == 0x1000;
  EXPECT_TRUE(FoundConstPtr);
  expectValid(*F);
}

/// Uniform-trip-count loop whose body synchronizes each iteration:
/// for (i = 0; i < n; ++i) { barrier; out[i] = i; } — the GPU invariant is
/// that every transformation preserves both the barriers and their count
/// per iteration.
Function *buildBarrierLoopKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction("kbar", Ctx.getVoidTy(),
                                 {Ctx.getPtrTy(), Ctx.getI32Ty()},
                                 {"out", "n"}, FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *H = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(H);
  B.setInsertPoint(H);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(1), "c"), Body,
                 Exit);
  B.setInsertPoint(Body);
  B.createBarrier();
  B.createStore(I, B.createGep(Ctx.getI32Ty(), F->getArg(0), I, "p"));
  Value *I2 = B.createAdd(I, B.getInt32(1), "i2");
  I->addIncoming(I2, Body);
  B.createBr(H);
  B.setInsertPoint(Exit);
  B.createRet();
  return F;
}

TEST(DCEBarrierTest, NeverDeletesBarriers) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  B.createBarrier();
  // Dead arithmetic around the barrier: removable. The barrier produces no
  // value and has no uses, yet is a synchronization side effect.
  B.createAdd(B.getInt32(1), B.getInt32(2), "dead");
  B.createBarrier();
  B.createRet();

  EXPECT_TRUE(DCEPass().run(*F));
  EXPECT_EQ(countKind(*F, ValueKind::Add), 0u);
  EXPECT_EQ(countKind(*F, ValueKind::Barrier), 2u);
  expectValid(*F);
}

TEST(LICMBarrierTest, DoesNotMoveMemoryAccessesAcrossLoopBarrier) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction(
      "k", Ctx.getVoidTy(), {Ctx.getPtrTy(), Ctx.getI32Ty()}, {"p", "n"},
      FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *H = F->createBlock("h", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("b", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("x", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(H);
  B.setInsertPoint(H);
  PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  I->addIncoming(B.getInt32(0), Entry);
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(1)), Body, Exit);
  B.setInsertPoint(Body);
  // A loop-invariant load and a store bracketing a barrier. Another
  // thread's store becomes visible at the barrier, so neither access may
  // cross it (the load is non-speculatable; the store is effectful).
  Value *Ld = B.createLoad(Ctx.getI32Ty(), F->getArg(0), "ld");
  B.createBarrier();
  B.createStore(B.createAdd(Ld, I, "s"), F->getArg(0));
  Value *I2 = B.createAdd(I, B.getInt32(1));
  I->addIncoming(I2, Body);
  B.createBr(H);
  B.setInsertPoint(Exit);
  B.createRet();

  LICMPass().run(*F);
  expectValid(*F);
  bool SawLoad = false, SawBarrier = false, SawStore = false;
  // Order within the body must also be intact: load, barrier, store.
  for (Instruction &Inst : *Body) {
    if (Inst.getKind() == ValueKind::Load) {
      EXPECT_FALSE(SawBarrier) << "load moved across the barrier";
      SawLoad = true;
    }
    if (Inst.getKind() == ValueKind::Barrier) {
      EXPECT_TRUE(SawLoad);
      SawBarrier = true;
    }
    if (Inst.getKind() == ValueKind::Store) {
      EXPECT_TRUE(SawBarrier) << "store moved across the barrier";
      SawStore = true;
    }
  }
  EXPECT_TRUE(SawLoad && SawBarrier && SawStore)
      << "an access left the loop body";
}

TEST(LoopUnrollBarrierTest, UnrollPreservesBarrierCountPerIteration) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildBarrierLoopKernel(M);
  EXPECT_EQ(countKind(*F, ValueKind::Barrier), 1u);

  specializeArguments(*F, {{1, 4}}); // n = 4: the trip count is now exact
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*F, Opts);
  expectValid(*F);
  // Fully unrolled: one barrier per original iteration, no more, no less.
  EXPECT_EQ(countKind(*F, ValueKind::Phi), 0u) << "loop did not unroll";
  EXPECT_EQ(countKind(*F, ValueKind::Barrier), 4u);
  EXPECT_EQ(countKind(*F, ValueKind::Store), 4u);
}

} // namespace
