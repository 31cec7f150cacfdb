//===- pipeline_property_test.cpp - randomized differential testing ---------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Property suites over generated random kernels (tests/RandomKernel.h):
//
//  * generated kernels verify and round-trip through text and bitcode;
//  * the O3 pipeline preserves interpreter semantics bit-for-bit;
//  * the full codegen + simulator pipeline matches the interpreter on both
//    targets and under several register budgets;
//  * JIT specialization (folding the annotated scalars to the values
//    actually passed) never changes results;
//  * the PassManager's stop rule (skip a pass already clean on the current
//    IR, stop once every distinct pass is) yields the same IR as rerunning
//    every position after the last change.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"
#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "codegen/Compiler.h"
#include "codegen/ISel.h"
#include "codegen/Ptx.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/StringUtils.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr uint32_t N = 32; // elements / threads per kernel

/// Fresh input/output image for one run.
std::vector<uint8_t> freshMemory(uint64_t Seed) {
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  Rng R(Seed ^ 0x5eed);
  for (uint32_t I = 0; I != N; ++I)
    In[I] = R.unit() * 8.0 - 4.0;
  return Mem;
}

std::vector<uint64_t> argsFor(uint64_t Seed) {
  Rng R(Seed ^ 0xa59);
  return {0, N * sizeof(double), N, sem::boxF64(R.unit() * 3.0),
          static_cast<uint64_t>(R.below(1000))};
}

class RandomKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomKernelTest, VerifiesAndRoundTrips) {
  uint64_t Seed = GetParam();
  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  expectValid(*M);

  // Text round trip.
  std::string Text = printModule(*M);
  Context Ctx2;
  ParseResult PR = parseModule(Ctx2, Text);
  ASSERT_TRUE(PR) << PR.Error;
  EXPECT_EQ(printModule(*PR.M), Text);

  // Bitcode round trip.
  std::vector<uint8_t> BC = writeBitcode(*M);
  Context Ctx3;
  BitcodeReadResult BR = readBitcode(Ctx3, BC);
  ASSERT_TRUE(BR) << BR.Error;
  EXPECT_EQ(printModule(*BR.M), Text);
}

TEST_P(RandomKernelTest, O3PreservesSemantics) {
  uint64_t Seed = GetParam();
  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  Function *F = M->getFunction("rk");
  std::vector<uint64_t> Args = argsFor(Seed);

  std::vector<uint8_t> Before = freshMemory(Seed);
  interpretLaunch(*F, Args, Before, 1, N);

  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*M, Opts);
  expectValid(*M);

  std::vector<uint8_t> After = freshMemory(Seed);
  interpretLaunch(*F, Args, After, 1, N);
  EXPECT_EQ(Before, After) << "O3 changed semantics for seed " << Seed;
}

TEST_P(RandomKernelTest, CodegenMatchesInterpreterBothTargets) {
  uint64_t Seed = GetParam();
  std::vector<uint64_t> Args = argsFor(Seed);

  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  Function *F = M->getFunction("rk");
  std::vector<uint8_t> Ref = freshMemory(Seed);
  interpretLaunch(*F, Args, Ref, 1, N);
  runO3(*M);

  // nvptx-sim takes the real path: PTX print and re-assembly before
  // allocation. Every budget runs under the full and the Tier-0 (Fast)
  // allocator.
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    for (unsigned Budget : {9u, 16u, 64u}) {
      for (bool Fast : {false, true}) {
        SCOPED_TRACE(formatString("seed %llu arch %s budget %u fast %d",
                                  static_cast<unsigned long long>(Seed),
                                  gpuArchName(Arch), Budget, Fast));
        mcode::MachineFunction MF = selectInstructions(*F);
        if (getTarget(Arch).EmitsPtx) {
          PtxAssembleResult Asm = assemblePtx(printPtx(MF));
          ASSERT_TRUE(Asm.Ok) << Asm.Error;
          MF = std::move(Asm.MF);
        }
        RegAllocOptions Opts;
        Opts.Fast = Fast;
        allocateRegisters(MF, Budget, Opts);
        std::vector<uint8_t> Obj = writeObject(MF, Arch);

        Device Dev(getTarget(Arch), 1 << 20);
        std::vector<uint8_t> Init = freshMemory(Seed);
        std::copy(Init.begin(), Init.end(), Dev.memory().begin());
        LoadedKernel *K = nullptr;
        std::string Err;
        ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success)
            << Err;
        std::vector<KernelArg> KArgs;
        for (uint64_t A : Args)
          KArgs.push_back(KernelArg{A});
        ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{N, 1, 1},
                                  KArgs, &Err),
                  GpuError::Success)
            << Err;
        std::vector<uint8_t> Got(Dev.memory().begin(),
                                 Dev.memory().begin() +
                                     static_cast<long>(Ref.size()));
        EXPECT_EQ(Ref, Got);
      }
    }
  }
}

TEST_P(RandomKernelTest, SpecializationPreservesSemantics) {
  uint64_t Seed = GetParam();
  std::vector<uint64_t> Args = argsFor(Seed);

  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  Function *F = M->getFunction("rk");
  std::vector<uint8_t> Ref = freshMemory(Seed);
  interpretLaunch(*F, Args, Ref, 1, N);

  // Fold the annotated scalars (sf = arg index 3, si = 4, zero-based) to
  // the values actually passed, set launch bounds, optimize — results must
  // be unchanged.
  specializeArguments(*F, {{3, Args[3]}, {4, Args[4]}});
  specializeLaunchBounds(*F, N);
  O3Options Opts;
  Opts.VerifyEach = true;
  runO3(*M, Opts);

  std::vector<uint8_t> Got = freshMemory(Seed);
  interpretLaunch(*F, Args, Got, 1, N);
  EXPECT_EQ(Ref, Got) << "specialization changed semantics, seed " << Seed;
}

/// Forwards to a pass under an identity no other position shares, so the
/// PassManager can never skip it as "the same pass, already clean": its
/// stop rule then reruns every position after the last change.
class UniquePosition : public FunctionPass {
public:
  UniquePosition(std::unique_ptr<FunctionPass> Inner, unsigned Position)
      : Inner(std::move(Inner)), Position(Position) {}
  std::string name() const override { return Inner->name(); }
  std::string options() const override {
    return Inner->options() + "#" + std::to_string(Position);
  }
  bool run(Function &F) override { return Inner->run(F); }

private:
  std::unique_ptr<FunctionPass> Inner;
  unsigned Position;
};

TEST_P(RandomKernelTest, DistinctPassStopRuleMatchesPerPositionRule) {
  uint64_t Seed = GetParam();
  std::vector<uint64_t> Args = argsFor(Seed);
  // Unspecialized, then with the bound and the scalars folded so that
  // loops unroll and the second cleanup half has work.
  for (bool Specialize : {false, true}) {
    SCOPED_TRACE(Specialize ? "specialized" : "generic");
    O3Options Opts;
    Opts.VerifyEach = true;
    auto optimized = [&](bool UniquePositions, unsigned &Invocations) {
      Context Ctx;
      auto M = buildRandomKernel(Ctx, Seed);
      if (Specialize)
        specializeArguments(*M->getFunction("rk"),
                            {{2, Args[2]}, {3, Args[3]}, {4, Args[4]}});
      std::unique_ptr<PassManager> PM = buildO3Pipeline(Opts);
      if (UniquePositions) {
        auto Wrapped = std::make_unique<PassManager>(PM->maxIterations());
        Wrapped->setVerifyEach(true);
        unsigned Position = 0;
        for (auto &P : PM->takePasses())
          Wrapped->addPass(
              std::make_unique<UniquePosition>(std::move(P), Position++));
        PM = std::move(Wrapped);
      }
      PM->run(*M);
      Invocations = 0;
      for (const PassStatistics &S : PM->statistics())
        Invocations += S.Invocations;
      return printModule(*M);
    };
    unsigned Built = 0, PerPosition = 0;
    EXPECT_EQ(optimized(false, Built), optimized(true, PerPosition));
    EXPECT_LE(Built, PerPosition);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest,
                         ::testing::Range<uint64_t>(1, 97));

} // namespace
