//===- hecbench_test.cpp - benchmark program tests -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// For every HeCBench-sim program: the module verifies, and — the central
// property — every execution mode and specialization setting on both arches
// produces output buffers bit-identical to one reference, the program's
// launch sequence interpreted once on the reference IR interpreter, because
// specialization must never change kernel semantics. A synthetic program
// checks that runBenchmark fails a run that stores outside every buffer.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "hecbench/Benchmark.h"
#include "hecbench/KernelUtil.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

#include <cstring>
#include <future>

using namespace proteus;
using namespace proteus::hecbench;

using proteus_test::TempDir;

namespace {

using Outputs = std::map<std::string, std::vector<uint8_t>>;

/// Empty when \p Got equals \p Ref; otherwise names the first buffer that
/// differs and its first differing byte offset.
std::string firstDifference(const Outputs &Ref, const Outputs &Got) {
  for (const auto &[Name, Bytes] : Ref) {
    auto It = Got.find(Name);
    if (It == Got.end())
      return "buffer " + Name + " is missing";
    auto [R, G] = std::mismatch(Bytes.begin(), Bytes.end(), It->second.begin(),
                                It->second.end());
    if (R != Bytes.end() || G != It->second.end())
      return "buffer " + Name + " differs first at byte offset " +
             std::to_string(R - Bytes.begin()) + " (" +
             std::to_string(It->second.size()) + " bytes, reference " +
             std::to_string(Bytes.size()) + ")";
  }
  if (Got.size() != Ref.size())
    return "the run has buffers the reference lacks";
  return "";
}

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

TEST_P(HecbenchPrograms, EveryRunMatchesTheReference) {
  // A program's outputs depend only on its IR and inputs, so one
  // interpretation is the reference for all nine runs. It shares nothing
  // with the runs, so it overlaps them.
  auto B = bench();
  std::string Error;
  std::future<Outputs> Ref = std::async(
      std::launch::async, [&, Own = bench()] {
        return referenceOutputs(*Own, Error);
      });

  TempDir Tmp;
  std::vector<std::pair<std::string, RunConfig>> Runs;
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    const std::string A = gpuArchName(Arch);
    RunConfig C;
    C.Arch = Arch;
    Runs.push_back({A + " AOT", C});
    C.Mode = ExecMode::Proteus;
    C.Jit.CacheDir = Tmp.Path + "/" + A;
    Runs.push_back({A + " Proteus", C});
    RunConfig Tier = C;
    Tier.Jit.Tier = true;
    Runs.push_back({A + " Proteus+tier", Tier});
    if (Arch == GpuArch::AmdGcnSim) {
      RunConfig LB = C;
      LB.Jit.EnableRCF = false;
      Runs.push_back({A + " LB-only", LB});
      RunConfig RCF = C;
      RCF.Jit.EnableLaunchBounds = false;
      Runs.push_back({A + " RCF-only", RCF});
    } else {
      RunConfig Jitify = C;
      Jitify.Mode = ExecMode::Jitify;
      Runs.push_back({A + " Jitify", Jitify});
    }
  }
  std::vector<Outputs> Got;
  for (const auto &[Label, C] : Runs) {
    RunResult R = runBenchmark(*B, C);
    ASSERT_TRUE(R.Ok) << B->name() << " under " << Label << ": " << R.Error;
    EXPECT_TRUE(R.Verified);
    EXPECT_GT(R.KernelSeconds, 0.0);
    EXPECT_EQ(R.JitCompilations == 0, C.Mode == ExecMode::AOT) << Label;
    Got.push_back(std::move(R.Outputs));
  }
  const Outputs Reference = Ref.get();
  ASSERT_FALSE(Reference.empty()) << Error;
  for (size_t I = 0; I != Runs.size(); ++I) {
    std::string Diff = firstDifference(Reference, Got[I]);
    EXPECT_TRUE(Diff.empty()) << B->name() << " under " << Runs[I].first
                              << ": " << Diff;
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

/// Fifty threads write out[i] = i, and every thread also stores the value
/// \p Stray at out[Stray]. "out" holds 50 i32s in a 256-byte allocation,
/// and the buffer "tail" is allocated after it, so element 60 lies in
/// out's padding below the high-water mark, and element 2^20 + 1 lies
/// above the mark. Element 0 rewrites the value out[0] already holds.
class StrayStoreBenchmark : public Benchmark {
public:
  explicit StrayStoreBenchmark(int32_t Stray) : Stray(Stray) {}

  std::string name() const override { return "STRAY"; }
  std::string domain() const override { return "Test"; }
  std::string inputDescription() const override { return ""; }

  std::unique_ptr<pir::Module> buildModule(pir::Context &Ctx) const override {
    auto M = std::make_unique<pir::Module>(Ctx, "stray");
    pir::IRBuilder B(Ctx);
    pir::Type *I32 = Ctx.getI32Ty();
    pir::Function *F = M->createFunction(
        "stray", Ctx.getVoidTy(), {Ctx.getPtrTy(), I32, I32},
        {"out", "n", "stray"}, pir::FunctionKind::Kernel);
    F->setJitAnnotation(pir::JitAnnotation{{2, 3}});
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
    pir::BasicBlock *Work = nullptr, *Exit = nullptr;
    pir::Value *Gtid = emitGuardedPrologue(B, F, F->getArg(1), Work, Exit);
    B.createStore(Gtid, B.createGep(I32, F->getArg(0), Gtid));
    B.createStore(F->getArg(2), B.createGep(I32, F->getArg(0), F->getArg(2)));
    B.createRet();
    return M;
  }

  std::vector<BufferSpec> buffers() const override {
    return {BufferSpec::fromInts("out", std::vector<int32_t>(Threads, -1)),
            BufferSpec::fromInts("tail", std::vector<int32_t>(4, -1))};
  }

  std::vector<LaunchSpec> launches() const override {
    LaunchSpec L;
    L.Symbol = "stray";
    L.Grid = gpu::Dim3{1, 1, 1};
    L.Block = gpu::Dim3{64, 1, 1};
    L.Args = {ArgSpec::buffer("out"), ArgSpec::scalarI32(Threads),
              ArgSpec::scalarI32(Stray)};
    return {L};
  }

  bool verifyOutput(const BufferReader &Out) const override {
    std::vector<uint8_t> Bytes = Out.bytes("out");
    std::vector<int32_t> V(Threads);
    for (int32_t I = 0; I != Threads; ++I)
      V[I] = I;
    return Bytes.size() == sizeof(int32_t) * Threads &&
           std::memcmp(Bytes.data(), V.data(), Bytes.size()) == 0;
  }

private:
  static constexpr int32_t Threads = 50;
  int32_t Stray;
};

TEST(StrayStoreTest, InBufferStoreRunsClean) {
  StrayStoreBenchmark B(0);
  RunResult R = runBenchmark(B, RunConfig{});
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Error;
  EXPECT_EQ(firstDifference(referenceOutputs(B, Error), R.Outputs), "")
      << Error;
}

TEST(StrayStoreTest, StoreOutsideEveryBufferFailsTheRunNamingTheAddress) {
  // The first allocation sits at address 64, so out[I] is at 64 + 4 * I;
  // both stored values have a non-zero low byte, so the first byte the
  // store changed is that address.
  for (auto [Stray, Address] :
       {std::pair<int32_t, const char *>{60, "0x130"},
        {(1 << 20) + 1, "0x400044"}}) {
    StrayStoreBenchmark B(Stray);
    RunResult R = runBenchmark(B, RunConfig{});
    EXPECT_FALSE(R.Ok) << "stray store at out[" << Stray << "] was missed";
    EXPECT_EQ(R.Error,
              std::string("launches changed device memory outside every "
                          "buffer at ") +
                  Address);
  }
}

} // namespace
