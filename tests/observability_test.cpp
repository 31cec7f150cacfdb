//===- observability_test.cpp - JIT observability + config fixes -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Regression tests for the observability layer at the JIT-runtime level:
// strict PROTEUS_ASYNC / PROTEUS_ASYNC_WORKERS parsing (invalid values are
// warned about, not silently coerced), stage timings that survive compile
// error paths, out-of-range jit-annotation indices surfacing as launch
// errors, and per-pass O3 attribution in JitRuntimeStats.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "codegen/Target.h"
#include "ir/Context.h"
#include "jit/JitRuntime.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

// --- Environment parsing -----------------------------------------------------

/// Sets an environment variable for the current scope and restores the
/// previous value (or unsets) on destruction.
struct ScopedEnv {
  std::string Name;
  std::string Saved;
  bool HadValue;
  ScopedEnv(const std::string &Name, const std::string &Value) : Name(Name) {
    const char *Old = std::getenv(Name.c_str());
    HadValue = Old != nullptr;
    if (HadValue)
      Saved = Old;
    setenv(Name.c_str(), Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (HadValue)
      setenv(Name.c_str(), Saved.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
};

TEST(JitConfigEnvTest, ValidValuesParseWithoutWarnings) {
  ScopedEnv A("PROTEUS_ASYNC", "fallback");
  ScopedEnv W("PROTEUS_ASYNC_WORKERS", "8");
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_TRUE(Warnings.empty()) << Warnings.front();
  EXPECT_EQ(C.Async, JitConfig::AsyncMode::Fallback);
  EXPECT_EQ(C.AsyncWorkers, 8u);
}

TEST(JitConfigEnvTest, RemovedBlockModeWarnsCountsAndKeepsDefault) {
  ScopedEnv A("PROTEUS_ASYNC", "block");
  const uint64_t ErrorsBefore =
      metrics::processRegistry().counter("config.errors").value();
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_EQ(Warnings[0], "ignoring invalid PROTEUS_ASYNC value 'block' "
                         "(expected sync|fallback)");
  EXPECT_EQ(C.Async, JitConfig::AsyncMode::Sync) << "default preserved";
  EXPECT_EQ(metrics::processRegistry().counter("config.errors").value(),
            ErrorsBefore + 1);
}

TEST(JitConfigEnvTest, ExplicitSyncIsAccepted) {
  ScopedEnv A("PROTEUS_ASYNC", "sync");
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_TRUE(Warnings.empty());
  EXPECT_EQ(C.Async, JitConfig::AsyncMode::Sync);
}

TEST(JitConfigEnvTest, InvalidAsyncModeWarnsAndKeepsDefault) {
  // "blocking" used to silently select Sync — the opposite of what the
  // user asked for. It must now be rejected with a diagnostic.
  ScopedEnv A("PROTEUS_ASYNC", "blocking");
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  ASSERT_EQ(Warnings.size(), 1u);
  EXPECT_NE(Warnings[0].find("PROTEUS_ASYNC"), std::string::npos);
  EXPECT_NE(Warnings[0].find("blocking"), std::string::npos);
  EXPECT_EQ(C.Async, JitConfig::AsyncMode::Sync) << "default preserved";
}

TEST(JitConfigEnvTest, InvalidWorkerCountsWarnAndKeepDefault) {
  for (const char *Bad : {"0", "abc", "12abc", "-3", ""}) {
    SCOPED_TRACE(std::string("PROTEUS_ASYNC_WORKERS=") + Bad);
    ScopedEnv W("PROTEUS_ASYNC_WORKERS", Bad);
    std::vector<std::string> Warnings;
    JitConfig C = JitConfig::fromEnvironment(&Warnings);
    ASSERT_EQ(Warnings.size(), 1u);
    EXPECT_NE(Warnings[0].find("PROTEUS_ASYNC_WORKERS"), std::string::npos);
    EXPECT_EQ(C.AsyncWorkers, 4u) << "default preserved";
  }
}

// --- Direct-runtime harness --------------------------------------------------

constexpr uint32_t N = 32;

/// Minimal JitRuntime driver: registers raw bitcode for a symbol and
/// launches it, bypassing the AOT/program layer so error paths can be
/// provoked with precisely malformed inputs.
struct RtHarness {
  Device Dev;
  JitRuntime Rt;

  explicit RtHarness(JitConfig JC = defaultConfig())
      : Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22),
        Rt(Dev, /*ModuleId=*/0x0b5e, std::move(JC)) {}

  static JitConfig defaultConfig() {
    JitConfig JC;
    JC.UsePersistentCache = false;
    return JC;
  }

  void registerBitcode(const std::string &Symbol,
                       std::vector<uint8_t> Bitcode,
                       std::vector<uint32_t> AnnotatedArgs = {}) {
    JitKernelInfo Info;
    Info.Symbol = Symbol;
    Info.AnnotatedArgs = std::move(AnnotatedArgs);
    Info.HostBitcode = std::move(Bitcode);
    Rt.registerKernel(std::move(Info));
  }

  GpuError launchDaxpy(std::string *Err, double A = 2.0) {
    DevicePtr X = 0, Y = 0;
    EXPECT_EQ(gpuMalloc(Dev, &X, N * 8), GpuError::Success);
    EXPECT_EQ(gpuMalloc(Dev, &Y, N * 8), GpuError::Success);
    std::vector<KernelArg> Args = {{sem::boxF64(A)}, {X}, {Y}, {N}};
    return Rt.launchKernel("daxpy", Dim3{1, 1, 1}, Dim3{N, 1, 1}, Args, Err);
  }
};

// --- Stage timings on error paths --------------------------------------------

TEST(JitErrorStatsTest, CorruptBitcodeRecordsParseTime) {
  RtHarness H;
  // Real bitcode, truncated: the parser does real work before failing.
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  std::vector<uint8_t> BC = writeBitcode(M);
  BC.resize(BC.size() / 2);
  H.registerBitcode("daxpy", BC, {1, 4});

  std::string Err;
  EXPECT_NE(H.launchDaxpy(&Err), GpuError::Success);
  EXPECT_NE(Err.find("corrupt kernel bitcode"), std::string::npos) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.Compilations, 1u);
  EXPECT_GT(S.BitcodeParseSeconds, 0.0)
      << "parse time must be recorded on the parse-failure path";
}

TEST(JitErrorStatsTest, MissingKernelSymbolRecordsParseTime) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  buildLoopSumKernel(M); // bitcode holds @loopsum, not @daxpy
  H.registerBitcode("daxpy", writeBitcode(M), {1, 4});

  std::string Err;
  EXPECT_EQ(H.launchDaxpy(&Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("does not contain the kernel"), std::string::npos)
      << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.Compilations, 1u);
  EXPECT_GT(S.BitcodeParseSeconds, 0.0)
      << "parse time must be recorded on the kernel-not-found path";
}

TEST(JitErrorStatsTest, VerifierFailureRecordsParseTime) {
  JitConfig JC = RtHarness::defaultConfig();
  JC.VerifyIR = true;
  RtHarness H(JC);

  // A well-formed daxpy plus a device function whose body returns nothing
  // despite an f64 return type — writeBitcode round-trips it, the module
  // verifier rejects it.
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  IRBuilder B(Ctx);
  Function *Bad = M.createFunction("badret", Ctx.getF64Ty(), {}, {},
                                   FunctionKind::Device);
  B.setInsertPoint(Bad->createBlock("entry", Ctx.getVoidTy()));
  B.createRet();
  H.registerBitcode("daxpy", writeBitcode(M), {1, 4});

  std::string Err;
  EXPECT_EQ(H.launchDaxpy(&Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("failed verification"), std::string::npos) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.Compilations, 1u);
  EXPECT_GT(S.BitcodeParseSeconds, 0.0)
      << "parse time must be recorded on the verifier-failure path";
}

TEST(JitErrorStatsTest, GlobalLinkFailureRecordsLinkTime) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  IRBuilder B(Ctx);
  M.createGlobal("mystery", Ctx.getF64Ty(), 8);
  Function *F = M.createFunction("daxpy", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{}});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *V = B.createLoad(Ctx.getF64Ty(), M.getGlobal("mystery"));
  B.createStore(V, F->getArg(0));
  B.createRet();
  H.registerBitcode("daxpy", writeBitcode(M));

  DevicePtr Out = 0;
  EXPECT_EQ(gpuMalloc(H.Dev, &Out, 8), GpuError::Success);
  std::vector<KernelArg> Args = {{Out}};
  std::string Err;
  // @mystery was never registered and resolves nowhere on the device.
  EXPECT_EQ(H.Rt.launchKernel("daxpy", Dim3{1, 1, 1}, Dim3{1, 1, 1}, Args,
                              &Err),
            GpuError::NotFound);
  EXPECT_NE(Err.find("cannot link device global"), std::string::npos) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_GT(S.BitcodeParseSeconds, 0.0);
  EXPECT_GT(S.LinkGlobalsSeconds, 0.0)
      << "link time must be recorded on the link-failure path";
}

// --- Annotation range validation ---------------------------------------------

TEST(JitAnnotationRangeTest, OutOfRangeIndexFailsLaunch) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  // Annotation claims argument 9 of a 4-argument kernel is foldable.
  H.registerBitcode("daxpy", writeBitcode(M), {9});

  std::string Err;
  EXPECT_EQ(H.launchDaxpy(&Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
  EXPECT_NE(Err.find("9"), std::string::npos) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.AnnotationRangeErrors, 1u);
  EXPECT_EQ(S.Compilations, 0u)
      << "a mis-annotated launch must fail before compiling anything";
  EXPECT_EQ(S.Launches, 1u);
}

TEST(JitAnnotationRangeTest, ZeroIndexFailsLaunch) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  H.registerBitcode("daxpy", writeBitcode(M), {0}); // indices are 1-based

  std::string Err;
  EXPECT_EQ(H.launchDaxpy(&Err), GpuError::InvalidValue);
  EXPECT_EQ(H.Rt.stats().AnnotationRangeErrors, 1u);
}

TEST(JitAnnotationRangeTest, DisabledRcfIgnoresAnnotations) {
  JitConfig JC = RtHarness::defaultConfig();
  JC.EnableRCF = false; // no folding -> range never consulted
  RtHarness H(JC);
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  H.registerBitcode("daxpy", writeBitcode(M), {9});

  std::string Err;
  EXPECT_EQ(H.launchDaxpy(&Err), GpuError::Success) << Err;
  EXPECT_EQ(H.Rt.stats().AnnotationRangeErrors, 0u);
}

// --- Per-pass O3 attribution and success-path stats --------------------------

TEST(JitMetricsTest, SuccessfulCompilePopulatesPerPassO3Times) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  H.registerBitcode("daxpy", writeBitcode(M), {1, 4});

  std::string Err;
  ASSERT_EQ(H.launchDaxpy(&Err), GpuError::Success) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.Compilations, 1u);
  EXPECT_GT(S.BitcodeParseSeconds, 0.0);
  // Materialize is a sub-timer of parse, outside the stage total.
  EXPECT_GT(S.BitcodeMaterializeSeconds, 0.0);
  EXPECT_LE(S.BitcodeMaterializeSeconds, S.BitcodeParseSeconds);
  EXPECT_GT(S.SpecializeSeconds, 0.0);
  EXPECT_GT(S.OptimizeSeconds, 0.0);
  EXPECT_GT(S.BackendSeconds, 0.0);

  // Every pass of the O3 pipeline must be attributed.
  for (const char *Pass : {"inline", "mem2reg", "instcombine", "simplifycfg",
                           "cse", "licm", "dce", "loop-unroll"})
    EXPECT_EQ(S.O3PassSeconds.count(Pass), 1u) << "missing pass " << Pass;
  double Sum = 0;
  for (const auto &[Name, Seconds] : S.O3PassSeconds) {
    EXPECT_GE(Seconds, 0.0) << Name;
    Sum += Seconds;
  }
  EXPECT_LE(Sum, S.OptimizeSeconds + 1e-4)
      << "per-pass times cannot exceed the whole-pipeline time";

  // The registry exposes the same instruments under their metric names.
  bool SawLaunches = false;
  for (const auto &[Name, Value] : H.Rt.metricsRegistry().counterValues())
    if (Name == "jit.launches") {
      SawLaunches = true;
      EXPECT_EQ(Value, S.Launches);
    }
  EXPECT_TRUE(SawLaunches);
}

TEST(JitMetricsTest, StatsSnapshotIsConsistentAcrossLaunches) {
  RtHarness H;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  H.registerBitcode("daxpy", writeBitcode(M), {1, 4});

  std::string Err;
  ASSERT_EQ(H.launchDaxpy(&Err), GpuError::Success) << Err;
  ASSERT_EQ(H.launchDaxpy(&Err), GpuError::Success) << Err;
  ASSERT_EQ(H.launchDaxpy(&Err, /*A=*/3.0), GpuError::Success) << Err;

  JitRuntimeStats S = H.Rt.stats();
  EXPECT_EQ(S.Launches, 3u);
  EXPECT_EQ(S.Compilations, 2u) << "distinct fold value -> new compile";
  EXPECT_GT(S.LaunchBlockedSeconds, 0.0)
      << "Sync-mode compiles are launch-visible";
  EXPECT_GE(S.totalCompileSeconds(), S.OptimizeSeconds);
  EXPECT_GE(S.hiddenCompileSeconds(), 0.0);
}

} // namespace
