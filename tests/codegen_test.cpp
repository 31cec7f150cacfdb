//===- codegen_test.cpp - ISel/regalloc/PTX/object tests ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Mutation.h"
#include "RandomKernel.h"
#include "TestUtil.h"

#include "codegen/Compiler.h"
#include "codegen/ISel.h"
#include "codegen/Ptx.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "transforms/O3Pipeline.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace pir;
using namespace proteus;
using namespace proteus::mcode;
using namespace proteus_test;

namespace {

/// A named pre-allocation machine function: the input the PTX printer sees.
struct NamedMF {
  std::string Name;
  MachineFunction MF;
};

/// Every kernel of the six HeCBench-sim programs after O3 and ISel, named
/// "<program>.<kernel>".
const std::vector<NamedMF> &hecbenchMachineFunctions() {
  static const std::vector<NamedMF> All = [] {
    std::vector<NamedMF> Out;
    for (const auto &B : hecbench::allBenchmarks()) {
      Context Ctx;
      std::unique_ptr<Module> M = B->buildModule(Ctx);
      runO3(*M);
      for (Function *K : M->kernels())
        Out.push_back({B->name() + "." + K->getName(), selectInstructions(*K)});
    }
    return Out;
  }();
  return All;
}

TEST(ISelTest, LowersDaxpyWithoutCallsOrPhis) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  MachineFunction MF = selectInstructions(*F);
  EXPECT_EQ(MF.Name, "daxpy");
  EXPECT_EQ(MF.Params.size(), 4u);
  EXPECT_EQ(MF.Blocks.size(), 3u);
  EXPECT_FALSE(MF.Allocated);
  EXPECT_GT(MF.NumRegs, 4u);
  // The entry block ends in a conditional branch.
  ASSERT_FALSE(MF.Blocks[0].Instrs.empty());
  EXPECT_EQ(MF.Blocks[0].Instrs.back().Op, MOp::CondBr);
}

TEST(ISelTest, PhiBecomesPredecessorCopies) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  MachineFunction MF = selectInstructions(*F);
  // loopsum's phis take no staging temps (their incoming values are not
  // sibling phis and both predecessors are single-successor blocks), so the
  // copies appear at the predecessor tails: the body/latch block ends with
  // MovRR copies into the phi registers followed by the back edge.
  ASSERT_GE(MF.Blocks.size(), 4u);
  const MachineBlock &Latch = MF.Blocks[2];
  ASSERT_GE(Latch.Instrs.size(), 3u);
  EXPECT_EQ(Latch.Instrs.back().Op, MOp::Br);
  EXPECT_EQ(Latch.Instrs[Latch.Instrs.size() - 2].Op, MOp::MovRR);
  EXPECT_EQ(Latch.Instrs[Latch.Instrs.size() - 3].Op, MOp::MovRR);
  // No staged head copies in the header: it begins with real work.
  const MachineBlock &Header = MF.Blocks[1];
  ASSERT_FALSE(Header.Instrs.empty());
  EXPECT_NE(Header.Instrs[0].Op, MOp::MovRR);
}

TEST(ISelTest, UniformityClassification) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("k", Ctx.getVoidTy(),
                                 {Ctx.getI32Ty(), Ctx.getPtrTy()},
                                 {"n", "p"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *N2 = B.createMul(F->getArg(0), B.getInt32(2));   // uniform
  Value *Tid = B.createThreadIdx(0);                      // divergent
  Value *Mix = B.createAdd(N2, Tid);                      // divergent
  Value *P = B.createGep(Ctx.getI32Ty(), F->getArg(1), Mix);
  B.createStore(Mix, P);
  B.createRet();

  MachineFunction MF = selectInstructions(*F);
  // Find the mul (uniform) and add (divergent).
  bool SawUniformMul = false, SawDivergentAdd = false;
  for (const MachineInstr &MI : MF.Blocks[0].Instrs) {
    if (MI.Op == MOp::Binary &&
        static_cast<ValueKind>(MI.Aux) == ValueKind::Mul)
      SawUniformMul = MI.Uniform;
    if (MI.Op == MOp::Binary &&
        static_cast<ValueKind>(MI.Aux) == ValueKind::Add)
      SawDivergentAdd = !MI.Uniform;
  }
  EXPECT_TRUE(SawUniformMul);
  EXPECT_TRUE(SawDivergentAdd);
}

TEST(RegAllocTest, NoSpillsWithGenerousBudget) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  MachineFunction MF = selectInstructions(*F);
  RegAllocResult R = allocateRegisters(MF, 256);
  EXPECT_EQ(R.SpilledValues, 0u);
  EXPECT_EQ(R.SpillLoads, 0u);
  EXPECT_TRUE(MF.Allocated);
  EXPECT_LE(MF.NumRegs, 256u);
}

TEST(RegAllocTest, TightBudgetSpillsButStaysCorrect) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  MachineFunction MF = selectInstructions(*F);
  RegAllocResult R = allocateRegisters(MF, 8); // floor budget
  EXPECT_GT(R.SpilledValues, 0u);
  EXPECT_GT(R.SpillLoads, 0u);
  EXPECT_GT(MF.NumSpillSlots, 0u);
}

TEST(PtxTest, RoundTripThroughTextPreservesStructure) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  F->setLaunchBounds(LaunchBounds{128, 1});
  MachineFunction MF = selectInstructions(*F);
  std::string Ptx = printPtx(MF);
  EXPECT_NE(Ptx.find(".visible .entry loopsum"), std::string::npos);
  EXPECT_NE(Ptx.find(".maxntid 128"), std::string::npos);

  PtxAssembleResult Asm = assemblePtx(Ptx);
  ASSERT_TRUE(Asm.Ok) << Asm.Error;
  EXPECT_EQ(Asm.MF.Name, MF.Name);
  EXPECT_EQ(Asm.MF.Blocks.size(), MF.Blocks.size());
  EXPECT_EQ(Asm.MF.NumRegs, MF.NumRegs);
  EXPECT_EQ(Asm.MF.Params.size(), MF.Params.size());
  EXPECT_EQ(Asm.MF.totalInstructions(), MF.totalInstructions());
  // Identical re-print.
  EXPECT_EQ(printPtx(Asm.MF), Ptx);

  ASSERT_FALSE(hecbenchMachineFunctions().empty());
  for (const NamedMF &K : hecbenchMachineFunctions()) {
    std::string Text = printPtx(K.MF);
    PtxAssembleResult R = assemblePtx(Text);
    ASSERT_TRUE(R.Ok) << K.Name << ": " << R.Error;
    EXPECT_EQ(printPtx(R.MF), Text) << K.Name;
  }
}

/// Mutants pinned by tests/golden/ptx_mutants.txt; PROTEUS_FUZZ_ITERS
/// widens the sweep past them.
constexpr unsigned GoldenMutants = 1200;

/// The assembler's verdict on mutant \p I: "rejected", or the digest of
/// the accepted function's re-print, which must re-assemble to a fixpoint.
MutantVerdict ptxMutantVerdict(unsigned I) {
  const std::vector<NamedMF> &All = hecbenchMachineFunctions();
  const NamedMF &K = All[I % All.size()];
  Rng R(0x9e3779b9ull * (I + 1));
  unsigned Kind = R.below(std::size(TextMutationKinds));
  std::string Text = printPtx(K.MF);
  mutateText(Text, Kind, R);
  PtxAssembleResult Asm = assemblePtx(Text);
  std::string Verdict = "rejected";
  if (Asm.Ok) {
    std::string Reprint = printPtx(Asm.MF);
    FNV1aHash H;
    H.update(Reprint);
    Verdict = "ok " + hashToHex(H.digest());
    PtxAssembleResult Again = assemblePtx(Reprint);
    EXPECT_TRUE(Again.Ok) << "mutant " << I << ": " << Again.Error;
    EXPECT_EQ(printPtx(Again.MF), Reprint) << "mutant " << I;
  }
  return {formatString("%u %s %s %s", I, K.Name.c_str(),
                       TextMutationKinds[Kind], Verdict.c_str()),
          Asm.Ok};
}

TEST(PtxTest, MutantVerdictsMatchGolden) {
  expectMutantVerdictsMatchGolden(PROTEUS_PTX_MUTANTS, GoldenMutants,
                                  ptxMutantVerdict);
}

/// A one-instruction PTX module around the given `.reg` operand, label
/// number and instruction line.
std::string onePtxInstr(std::string_view RegCount, std::string_view Label,
                        std::string_view Instr) {
  std::string S = ".visible .entry k\n.reg ";
  S.append(RegCount).append("\n.localbytes 0\n.params\n{\n$L");
  S.append(Label).append(": // b\n  ").append(Instr).append(";\n}\n");
  return S;
}

/// Number tokens follow the base-10 rules of strtoul (unsigned fields:
/// registers, Aux, .reg, labels), strtoll (Imm) and strtol (Imm2), then
/// the field's own narrowing. Each case is checked against libc itself and
/// a few against literal values.
TEST(PtxTest, NumberTokensKeepLibcSemantics) {
  const std::string Long70 = std::string(68, '0') + "42";
  const std::string Tokens[] = {
      "+7", "-5", "12abc", "\t9", Long70, "18446744073709551616",
      "-9223372036854775809", "-9223372036854775808", "9223372036854775808",
      "-18446744073709551615", "99999999999999999999999", "abc", "-", "+",
      "+-3", "\v\f\r8"};
  auto UL = [](const std::string &T) {
    return std::strtoul(T.c_str(), nullptr, 10);
  };
  for (const std::string &T : Tokens) {
    SCOPED_TRACE("token '" + T + "'");
    std::string Line = "movi.s64." + T + ".u %r" + T + " %r" + T + " _ _ " +
                       T + " " + T;
    PtxAssembleResult R = assemblePtx(onePtxInstr(T, "0", Line));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.MF.NumRegs, static_cast<uint32_t>(UL(T)));
    ASSERT_EQ(R.MF.Blocks.size(), 1u);
    ASSERT_EQ(R.MF.Blocks[0].Instrs.size(), 1u);
    const MachineInstr &MI = R.MF.Blocks[0].Instrs[0];
    EXPECT_EQ(MI.Aux, static_cast<uint16_t>(UL(T)));
    EXPECT_EQ(MI.Dst, static_cast<Reg>(UL(T)));
    EXPECT_EQ(MI.Src1, static_cast<Reg>(UL(T)));
    EXPECT_EQ(MI.Src2, NoReg);
    EXPECT_EQ(MI.Imm, std::strtoll(T.c_str(), nullptr, 10));
    EXPECT_EQ(MI.Imm2,
              static_cast<int32_t>(std::strtol(T.c_str(), nullptr, 10)));
  }

  // The same rules as literal values.
  auto one = [](std::string_view Tok) {
    std::string Line = "bin.s32." + std::string(Tok) + ".d %r" +
                       std::string(Tok) + " _ _ _ " + std::string(Tok) + " " +
                       std::string(Tok);
    PtxAssembleResult R = assemblePtx(onePtxInstr("1", "0", Line));
    EXPECT_TRUE(R.Ok) << R.Error;
    return R.Ok ? R.MF.Blocks[0].Instrs[0] : MachineInstr{};
  };
  MachineInstr MI = one("+7");
  EXPECT_EQ(MI.Aux, 7u);
  EXPECT_EQ(MI.Dst, 7u);
  EXPECT_EQ(MI.Imm, 7);
  MI = one("-5"); // strtoul negates in unsigned arithmetic
  EXPECT_EQ(MI.Aux, 65531u);
  EXPECT_EQ(MI.Dst, 0xFFFFFFFBu);
  EXPECT_EQ(MI.Imm, -5);
  EXPECT_EQ(MI.Imm2, -5);
  MI = one("12abc");
  EXPECT_EQ(MI.Aux, 12u);
  EXPECT_EQ(MI.Imm, 12);
  MI = one(Long70);
  EXPECT_EQ(MI.Dst, 42u);
  EXPECT_EQ(MI.Imm, 42);
  MI = one("18446744073709551616"); // 2^64 saturates
  EXPECT_EQ(MI.Aux, 0xFFFFu);
  EXPECT_EQ(MI.Dst, NoReg);
  EXPECT_EQ(MI.Imm, INT64_MAX);
  EXPECT_EQ(MI.Imm2, -1); // LONG_MAX narrowed
  MI = one("-9223372036854775809"); // -2^63-1 saturates
  EXPECT_EQ(MI.Imm, INT64_MIN);
  EXPECT_EQ(MI.Imm2, 0); // LONG_MIN narrowed
  MI = one("x"); // no digits
  EXPECT_EQ(MI.Aux, 0u);
  EXPECT_EQ(MI.Dst, 0u);
  EXPECT_EQ(MI.Imm, 0);

  // A label is accepted when its number, narrowed to int, is the index of
  // the block it opens.
  for (std::string_view L : {"+0", "\t0", "-0", "x", "4294967296"})
    EXPECT_TRUE(assemblePtx(onePtxInstr("1", L, "ret.void.0.u _ _ _ _ 0 0")).Ok)
        << "label '" << L << "'";
  for (std::string_view L : {"1", "-1", "18446744073709551616"})
    EXPECT_FALSE(
        assemblePtx(onePtxInstr("1", L, "ret.void.0.u _ _ _ _ 0 0")).Ok)
        << "label '" << L << "'";
  EXPECT_TRUE(assemblePtx(onePtxInstr("1", std::string(70, '0'),
                                      "ret.void.0.u _ _ _ _ 0 0"))
                  .Ok);
}

TEST(PtxTest, AssemblerRejectsGarbage) {
  PtxAssembleResult R = assemblePtx("this is not ptx");
  EXPECT_FALSE(R.Ok);
  R = assemblePtx("");
  EXPECT_FALSE(R.Ok);
}

TEST(ObjectTest, RoundTrip) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  MachineFunction MF = compileKernel(*F, getAmdGcnSimTarget());
  std::vector<uint8_t> Obj = writeObject(MF, GpuArch::AmdGcnSim);
  ObjectReadResult R = readObject(Obj);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Arch, GpuArch::AmdGcnSim);
  EXPECT_EQ(R.MF.Name, "daxpy");
  EXPECT_EQ(R.MF.totalInstructions(), MF.totalInstructions());
  EXPECT_EQ(R.MF.NumRegs, MF.NumRegs);
  EXPECT_TRUE(R.MF.Allocated);
}

TEST(ObjectTest, RejectsTruncation) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  std::vector<uint8_t> Obj =
      compileKernelToObject(*F, getAmdGcnSimTarget());
  for (size_t Cut = 0; Cut < Obj.size(); Cut += 13) {
    std::vector<uint8_t> T(Obj.begin(), Obj.begin() + static_cast<long>(Cut));
    EXPECT_FALSE(readObject(T).Ok) << "cut " << Cut;
  }
}

TEST(TargetTest, RegisterBudgets) {
  const TargetInfo &Amd = getAmdGcnSimTarget();
  const TargetInfo &Nv = getNvPtxSimTarget();
  // AMD default (no launch bounds): worst-case 1024 threads -> 32 regs.
  EXPECT_EQ(Amd.registerBudget(std::nullopt), 32u);
  // With LB(256): 128 regs.
  EXPECT_EQ(Amd.registerBudget(LaunchBounds{256, 1}), 128u);
  EXPECT_EQ(Amd.registerBudget(LaunchBounds{1024, 1}), 32u);
  // LB(256, minBlocks=2): halved.
  EXPECT_EQ(Amd.registerBudget(LaunchBounds{256, 2}), 64u);
  // NVIDIA default is less conservative (64); LB raises it further.
  EXPECT_EQ(Nv.registerBudget(std::nullopt), 64u);
  EXPECT_EQ(Nv.registerBudget(LaunchBounds{512, 1}), 128u);
  EXPECT_EQ(Nv.registerBudget(LaunchBounds{256, 1}), 255u);
}

TEST(CompilerTest, NvidiaPathReportsPtxStageTimes) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  BackendStats S;
  MachineFunction MF = compileKernel(*F, getNvPtxSimTarget(), &S);
  EXPECT_TRUE(MF.Allocated);
  EXPECT_GT(S.PtxAsmSeconds + S.PtxEmitSeconds, 0.0);
  BackendStats S2;
  Module M2(Ctx, "m2");
  Function *F2 = buildLoopSumKernel(M2);
  compileKernel(*F2, getAmdGcnSimTarget(), &S2);
  EXPECT_EQ(S2.PtxAsmSeconds, 0.0);
}

} // namespace
