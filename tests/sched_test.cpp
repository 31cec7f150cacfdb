//===- sched_test.cpp - heterogeneous scheduler + migration battery -------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The scheduling subsystem (src/sched), end to end:
//
//  * the strict PROTEUS_DEVICE_ARCHS grammar rejects malformed lists with
//    one counted config error;
//  * cross-device event elapsed-time queries return a well-defined delta
//    (one global simulated-time coordinate) and count a diagnostic;
//  * cross-arch migration at a stream boundary is byte-identical to the
//    no-migration run, reuses the parse-once bitcode index (zero re-parse),
//    and its accounting (sched.migrations / bytes / regions / retarget
//    outcome) is exact — including the edge cases: migration racing a
//    Tier-1 promotion, a kernel holding device globals, a round trip that
//    must hit the warm per-arch cache, and a late-attached target whose
//    linkage-mode flip forces a clean recompile;
//  * the placement scheduler: off pins device 0 byte-identically, static
//    round-robins, load routes around busy devices, perf ranks by the
//    roofline prediction, and critical-path slack biases placement to
//    ready time alone;
//  * replay arch-override (the retarget-exercising replay mode) and
//    --publish-style cache warming replay byte-identical and leave a fresh
//    runtime with zero cold compiles.
//
// The migration-storm test is TSan-ready (tools/ci_tsan.sh re-runs this
// file with PROTEUS_NUM_DEVICES=4 and mixed PROTEUS_DEVICE_ARCHS): worker
// threads only record results; all gtest assertions happen on the main
// thread after join.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CriticalPath.h"
#include "analysis/Roofline.h"
#include "capture/Artifact.h"
#include "codegen/Target.h"
#include "gpu/DeviceManager.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "jit/AotCompiler.h"
#include "jit/Program.h"
#include "jit/Replay.h"
#include "sched/Migrator.h"
#include "sched/Scheduler.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::sched;
using namespace proteus_test;

namespace {

constexpr uint32_t N = 64; // elements per buffer / threads per launch

uint64_t counterValue(const metrics::Registry &R, const std::string &Name) {
  for (const auto &[K, V] : R.counterValues())
    if (K == Name)
      return V;
  return 0;
}

uint64_t processCounter(const std::string &Name) {
  return metrics::processRegistry().counter(Name).value();
}

/// A mixed-arch device pool sharing one JitRuntime, set up for daxpy.
/// Buffers are allocated on every device *before* the program image loads,
/// so x/y live at identical addresses across the whole pool — migrated
/// regions land on identically-shaped claims instead of colliding.
struct DaxpyPool {
  Context Ctx;
  Module M{Ctx, "sched_app"};
  Function *F = nullptr;
  CompiledProgram Prog;
  DeviceManager Mgr;
  std::unique_ptr<JitRuntime> Jit;
  std::unique_ptr<LoadedProgram> LP;
  std::vector<DevicePtr> X, Y;

  explicit DaxpyPool(const DeviceManager::Config &C, JitConfig JC = JitConfig())
      : Mgr(C) {
    F = buildDaxpyKernel(M);
    AotOptions AO;
    AO.Arch = Mgr.device(0).target().Arch;
    AO.EnableProteusExtensions = true;
    Prog = aotCompile(M, AO);

    JC.UsePersistentCache = false;
    Jit = std::make_unique<JitRuntime>(Mgr.device(0), Prog.ModuleId, JC);
    for (unsigned D = 1; D != Mgr.numDevices(); ++D)
      Jit->attachDevice(Mgr.device(D));

    std::vector<double> HX(N), HY(N);
    for (uint32_t I = 0; I != N; ++I) {
      HX[I] = 0.5 * I - 7.0;
      HY[I] = 1.0;
    }
    X.resize(Mgr.numDevices());
    Y.resize(Mgr.numDevices());
    for (unsigned D = 0; D != Mgr.numDevices(); ++D) {
      Device &Dev = Mgr.device(D);
      EXPECT_EQ(gpuMalloc(Dev, &X[D], N * 8), GpuError::Success);
      EXPECT_EQ(gpuMalloc(Dev, &Y[D], N * 8), GpuError::Success);
      gpuMemcpyHtoD(Dev, X[D], HX.data(), N * 8);
      gpuMemcpyHtoD(Dev, Y[D], HY.data(), N * 8);
    }

    // Program load last: on nvptx-sim devices it allocates bitcode blobs,
    // which must not shift the buffer addresses above.
    LP = std::make_unique<LoadedProgram>(Mgr.device(0), Prog, Jit.get());
    EXPECT_TRUE(LP->ok()) << LP->error();
  }

  std::vector<KernelArg> args(unsigned D, double A) const {
    return {{sem::boxF64(A)}, {X[D]}, {Y[D]}, {N}};
  }

  GpuError launch(unsigned D, double A, Stream *S = nullptr,
                  std::string *Err = nullptr) {
    return Jit->launchKernelOn(D, "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                               args(D, A), S, Err);
  }

  std::vector<uint8_t> readY(unsigned D) {
    std::vector<uint8_t> Bytes(N * 8);
    gpuMemcpyDtoH(Mgr.device(D), Bytes.data(), Y[D], N * 8);
    return Bytes;
  }
};

DeviceManager::Config poolConfig(std::vector<GpuArch> Archs) {
  DeviceManager::Config C;
  C.NumDevices = static_cast<unsigned>(Archs.size());
  C.StreamsPerDevice = 2;
  C.Archs = std::move(Archs);
  C.MemoryBytesPerDevice = 1ull << 22;
  return C;
}

/// Reference bytes: \p Launches daxpy launches on a single amdgcn-sim
/// device, no scheduler, no migration.
std::vector<uint8_t> baselineBytes(unsigned Launches, double A = 2.0) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim}));
  for (unsigned I = 0; I != Launches; ++I) {
    std::string Err;
    EXPECT_EQ(P.launch(0, A, nullptr, &Err), GpuError::Success) << Err;
  }
  P.Jit->drain();
  return P.readY(0);
}

// ---------------------------------------------------------------------------
// Mode names and the device-arch list grammar.
// ---------------------------------------------------------------------------

TEST(SchedConfigTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(schedModeName(SchedMode::Off), "off");
  EXPECT_STREQ(schedModeName(SchedMode::Static), "static");
  EXPECT_STREQ(schedModeName(SchedMode::Perf), "perf");
  EXPECT_STREQ(schedModeName(SchedMode::Load), "load");
}

TEST(DeviceArchsTest, StrictGrammarRejectsMalformedLists) {
  const char *Bad[] = {
      "amdgcn-sim,",            // trailing comma -> empty final segment
      ",nvptx-sim",             // leading comma
      "amdgcn-sim,,nvptx-sim",  // doubled comma
      "amdgcn-sim,bogus-arch",  // unknown name
      "",                       // empty value
  };
  for (const char *Value : Bad) {
    ScopedEnv E("PROTEUS_DEVICE_ARCHS", Value);
    uint64_t Before = processCounter("config.errors");
    std::vector<std::string> Warnings;
    DeviceManager::Config C = DeviceManager::configFromEnvironment(&Warnings);
    EXPECT_TRUE(C.Archs.empty()) << Value;
    ASSERT_EQ(Warnings.size(), 1u) << Value;
    EXPECT_NE(Warnings[0].find("PROTEUS_DEVICE_ARCHS"), std::string::npos)
        << Warnings[0];
    EXPECT_EQ(processCounter("config.errors"), Before + 1) << Value;
  }

  ScopedEnv E("PROTEUS_DEVICE_ARCHS", "nvptx-sim,amdgcn-sim");
  std::vector<std::string> Warnings;
  DeviceManager::Config C = DeviceManager::configFromEnvironment(&Warnings);
  EXPECT_TRUE(Warnings.empty());
  ASSERT_EQ(C.Archs.size(), 2u);
  EXPECT_EQ(C.Archs[0], GpuArch::NvPtxSim);
  EXPECT_EQ(C.Archs[1], GpuArch::AmdGcnSim);
}

// ---------------------------------------------------------------------------
// Cross-device events.
// ---------------------------------------------------------------------------

TEST(CrossDeviceEventTest, ElapsedAcrossDevicesIsDefinedAndCounted) {
  DeviceManager Mgr(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  Device &A = Mgr.device(0);
  Device &B = Mgr.device(1);

  A.defaultStream().enqueue(0.25, "work");
  Event E1;
  ASSERT_EQ(gpuEventRecord(A, E1, &A.defaultStream()), GpuError::Success);
  B.defaultStream().enqueue(0.75, "work");
  Event E2;
  ASSERT_EQ(gpuEventRecord(B, E2, &B.defaultStream()), GpuError::Success);

  EXPECT_EQ(E1.DeviceOrdinal, 0);
  EXPECT_EQ(E2.DeviceOrdinal, 1);

  // All devices share one simulated-time coordinate, so the delta is
  // well-defined — and the cross-device query is counted as a diagnostic.
  uint64_t Before = processCounter("gpu.event_cross_device");
  double Ms = -1.0;
  ASSERT_EQ(gpuEventElapsedTime(&Ms, E1, E2), GpuError::Success);
  EXPECT_NEAR(Ms, (0.75 - 0.25) * 1e3, 1e-9);
  EXPECT_EQ(processCounter("gpu.event_cross_device"), Before + 1);

  // Same-device pairs stay uncounted.
  Event E3;
  ASSERT_EQ(gpuEventRecord(A, E3, &A.defaultStream()), GpuError::Success);
  ASSERT_EQ(gpuEventElapsedTime(&Ms, E1, E3), GpuError::Success);
  EXPECT_EQ(processCounter("gpu.event_cross_device"), Before + 1);
}

// ---------------------------------------------------------------------------
// Cross-arch migration.
// ---------------------------------------------------------------------------

TEST(MigrationTest, CrossArchMigrationIsByteIdenticalAndZeroReparse) {
  const std::vector<uint8_t> Expected = baselineBytes(4);

  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  std::string Err;
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;

  const uint64_t SrcSymbols = P.Mgr.device(0).symbolBindings().size();

  metrics::Registry SReg;
  Migrator Mig(*P.Jit, SReg);
  MigrationResult R = Mig.migrate(0, 1, "daxpy", Dim3{32, 1, 1},
                                  P.args(0, 2.0));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.DrainTimeSec, 0.0) << "drain must cover the copy-out";
  EXPECT_EQ(R.RegionsCopied, 2u);
  EXPECT_EQ(R.BytesCopied, 2u * N * 8);
  EXPECT_EQ(R.SymbolsRebound, SrcSymbols);
  EXPECT_FALSE(R.RetargetReusedCache) << "nv object cannot be warm yet";

  // Resume the timeline tail on the target: byte-identical to never having
  // migrated (the simulator is functional, so arch must not matter).
  ASSERT_EQ(P.launch(1, 2.0, nullptr, &Err), GpuError::Success) << Err;
  ASSERT_EQ(P.launch(1, 2.0, nullptr, &Err), GpuError::Success) << Err;
  P.Jit->drain();
  EXPECT_EQ(P.readY(1), Expected);

  // Exact accounting. The retarget compiled the nv object from the cached
  // parse-once index: one backend run, zero cache reuse, and — the key
  // property — exactly one front-end bitcode parse for the whole life of
  // the kernel, launches and migration included.
  JitRuntimeStats St = P.Jit->stats();
  EXPECT_EQ(St.RetargetCompiles, 1u);
  EXPECT_EQ(St.RetargetCacheReuse, 0u);
  EXPECT_EQ(St.BitcodeParses, 1u) << "retarget must not re-parse bitcode";
  EXPECT_EQ(counterValue(SReg, "sched.migrations"), 1u);
  EXPECT_EQ(counterValue(SReg, "sched.migration_bytes"), 2u * N * 8);
  EXPECT_EQ(counterValue(SReg, "sched.migration_regions"), 2u);
  EXPECT_EQ(counterValue(SReg, "sched.migration_symbols"), SrcSymbols);
  EXPECT_EQ(counterValue(SReg, "sched.migration_retarget_compiled"), 1u);
  EXPECT_EQ(counterValue(SReg, "sched.migration_retarget_reused"), 0u);
}

TEST(MigrationTest, RoundTripReusesWarmPerArchCache) {
  const std::vector<uint8_t> Expected = baselineBytes(4);

  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  std::string Err;
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;

  metrics::Registry SReg;
  Migrator Mig(*P.Jit, SReg);
  MigrationResult To = Mig.migrate(0, 1, "daxpy", Dim3{32, 1, 1},
                                   P.args(0, 2.0));
  ASSERT_TRUE(To.Ok) << To.Error;
  ASSERT_EQ(P.launch(1, 2.0, nullptr, &Err), GpuError::Success) << Err;

  // Back to the amd device: its final-tier object is warm in the shared
  // cache, so the return migration must not compile anything.
  MigrationResult Back = Mig.migrate(1, 0, "daxpy", Dim3{32, 1, 1},
                                     P.args(1, 2.0));
  ASSERT_TRUE(Back.Ok) << Back.Error;
  EXPECT_TRUE(Back.RetargetReusedCache);
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;
  P.Jit->drain();
  EXPECT_EQ(P.readY(0), Expected);

  JitRuntimeStats St = P.Jit->stats();
  EXPECT_EQ(St.RetargetCompiles, 1u) << "only the nv leg compiles";
  EXPECT_EQ(St.RetargetCacheReuse, 1u);
  EXPECT_EQ(St.BitcodeParses, 1u);
  EXPECT_EQ(counterValue(SReg, "sched.migrations"), 2u);
  EXPECT_EQ(counterValue(SReg, "sched.migration_retarget_reused"), 1u);
  EXPECT_EQ(counterValue(SReg, "sched.migration_retarget_compiled"), 1u);
}

TEST(MigrationTest, MigrationDuringTierPromotionNeverLoadsTier0) {
  const std::vector<uint8_t> Expected = baselineBytes(2);

  JitConfig JC;
  JC.Tier = true; // Tier-0 serves the launch; Tier-1 promotes in background
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}), JC);
  std::string Err;
  ASSERT_EQ(P.launch(0, 2.0, nullptr, &Err), GpuError::Success) << Err;

  // Migrate immediately — the Tier-1 promotion may still be in flight. The
  // retarget's reuse check rejects Tier-0 placeholders, so whatever the
  // race outcome, the target device gets a final-tier object.
  metrics::Registry SReg;
  Migrator Mig(*P.Jit, SReg);
  MigrationResult R = Mig.migrate(0, 1, "daxpy", Dim3{32, 1, 1},
                                  P.args(0, 2.0));
  ASSERT_TRUE(R.Ok) << R.Error;

  ASSERT_EQ(P.launch(1, 2.0, nullptr, &Err), GpuError::Success) << Err;
  P.Jit->drain();
  EXPECT_EQ(P.readY(1), Expected);
  EXPECT_GE(P.Jit->stats().Tier0Compiles, 1u);
  EXPECT_EQ(counterValue(SReg, "sched.migrations"), 1u);
}

TEST(MigrationTest, DeviceGlobalsMigrateAndRelinkSymbolically) {
  // A kernel reading a device global: y[i] = weights[i & 7] * x[i].
  Context Ctx;
  Module M(Ctx, "gmig_app");
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  M.createGlobal("weights", F64, 8);
  Function *K = M.createFunction(
      "gscale", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty()}, {"x", "y", "n"},
      FunctionKind::Kernel);
  K->setJitAnnotation(JitAnnotation{{3}});
  BasicBlock *Entry = K->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = K->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = K->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(ICmpPred::SLT, Gtid, K->getArg(2)), Then, Exit);
  B.setInsertPoint(Then);
  Value *Idx = B.createAnd(Gtid, B.getInt32(7), "widx");
  Value *W =
      B.createLoad(F64, B.createGep(F64, M.getGlobal("weights"), Idx), "w");
  Value *Xv =
      B.createLoad(F64, B.createGep(F64, K->getArg(0), Gtid), "xv");
  B.createStore(B.createFMul(W, Xv), B.createGep(F64, K->getArg(1), Gtid));
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  expectValid(M);

  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  DeviceManager Mgr(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(Mgr.device(0), Prog.ModuleId, JC);
  Jit.attachDevice(Mgr.device(1));

  // Buffers first on both devices (identical addresses), program image —
  // and with it the weights global — only on the source device.
  std::vector<double> HX(N);
  for (uint32_t I = 0; I != N; ++I)
    HX[I] = 0.25 * I - 3.0;
  DevicePtr X[2] = {0, 0}, Y[2] = {0, 0};
  for (unsigned D = 0; D != 2; ++D) {
    ASSERT_EQ(gpuMalloc(Mgr.device(D), &X[D], N * 8), GpuError::Success);
    ASSERT_EQ(gpuMalloc(Mgr.device(D), &Y[D], N * 8), GpuError::Success);
    gpuMemcpyHtoD(Mgr.device(D), X[D], HX.data(), N * 8);
  }
  ASSERT_EQ(X[0], X[1]);
  ASSERT_EQ(Y[0], Y[1]);
  LoadedProgram LP(Mgr.device(0), Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  DevicePtr WeightsAddr = 0;
  for (const auto &[Sym, Addr] : Mgr.device(0).symbolBindings())
    if (Sym == "weights")
      WeightsAddr = Addr;
  ASSERT_NE(WeightsAddr, 0u) << "program load must bind the global";
  std::vector<double> HW(8);
  for (uint32_t I = 0; I != 8; ++I)
    HW[I] = 1.5 + 0.5 * I;
  gpuMemcpyHtoD(Mgr.device(0), WeightsAddr, HW.data(), 8 * 8);

  std::vector<KernelArg> Args = {{X[0]}, {Y[0]}, {N}};
  std::string Err;
  ASSERT_EQ(Jit.launchKernelOn(0, "gscale", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                               Args, nullptr, &Err),
            GpuError::Success)
      << Err;

  metrics::Registry SReg;
  Migrator Mig(Jit, SReg);
  MigrationResult R = Mig.migrate(0, 1, "gscale", Dim3{32, 1, 1}, Args);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.SymbolsRebound, 1u) << "weights must be re-bound on the target";

  // The target launch reads the *migrated* weights through the symbolic
  // relocation resolved at load time on the target device.
  ASSERT_EQ(Jit.launchKernelOn(1, "gscale", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                               Args, nullptr, &Err),
            GpuError::Success)
      << Err;
  Jit.drain();
  std::vector<double> Got(N);
  gpuMemcpyDtoH(Mgr.device(1), Got.data(), Y[0], N * 8);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(Got[I], HW[I & 7] * HX[I]) << "element " << I;
}

TEST(MigrationTest, LateAttachedTargetForcesLinkageModeRecompile) {
  const std::vector<uint8_t> Expected = baselineBytes(4);

  // Single-device start: objects bake resolved global addresses into the
  // IR (symbolicGlobals off) and carry that linkage-mode fingerprint.
  Context Ctx;
  Module M(Ctx, "late_app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  Device A(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Device Late(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Late.setOrdinal(1);
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(A, Prog.ModuleId, JC);
  LoadedProgram LP(A, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  DevicePtr X = 0, Y = 0;
  std::vector<double> HX(N), HY(N);
  for (uint32_t I = 0; I != N; ++I) {
    HX[I] = 0.5 * I - 7.0;
    HY[I] = 1.0;
  }
  ASSERT_EQ(gpuMalloc(A, &X, N * 8), GpuError::Success);
  ASSERT_EQ(gpuMalloc(A, &Y, N * 8), GpuError::Success);
  gpuMemcpyHtoD(A, X, HX.data(), N * 8);
  gpuMemcpyHtoD(A, Y, HY.data(), N * 8);

  std::vector<KernelArg> Args = {{sem::boxF64(2.0)}, {X}, {Y}, {N}};
  std::string Err;
  ASSERT_EQ(Jit.launchKernel("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                             &Err),
            GpuError::Success)
      << Err;
  ASSERT_EQ(Jit.launchKernel("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                             &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(Jit.stats().Compilations, 1u);

  // Attaching the second device flips the pool into symbolic-globals mode:
  // the cached single-device object's fingerprint no longer matches, so
  // the migration's reuse check must reject it and recompile cleanly —
  // even though arch and specialization hash are identical.
  ASSERT_EQ(Jit.attachDevice(Late), 1u);
  metrics::Registry SReg;
  Migrator Mig(Jit, SReg);
  MigrationResult R = Mig.migrate(0, 1, "daxpy", Dim3{32, 1, 1}, Args);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.RetargetReusedCache)
      << "stale linkage-mode object must not be served";
  EXPECT_EQ(Jit.stats().RetargetCompiles, 1u);
  EXPECT_EQ(Jit.stats().RetargetCacheReuse, 0u);

  ASSERT_EQ(Jit.launchKernelOn(1, "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                               Args, nullptr, &Err),
            GpuError::Success)
      << Err;
  ASSERT_EQ(Jit.launchKernelOn(1, "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                               Args, nullptr, &Err),
            GpuError::Success)
      << Err;
  Jit.drain();
  std::vector<uint8_t> Got(N * 8);
  gpuMemcpyDtoH(Late, Got.data(), Y, N * 8);
  EXPECT_EQ(Got, Expected);
}

TEST(MigrationTest, RejectsInvalidEndpoints) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  metrics::Registry SReg;
  Migrator Mig(*P.Jit, SReg);

  MigrationResult Same = Mig.migrate(0, 0, "daxpy", Dim3{32, 1, 1},
                                     P.args(0, 2.0));
  EXPECT_FALSE(Same.Ok);
  EXPECT_NE(Same.Error.find("same device"), std::string::npos) << Same.Error;

  MigrationResult Range = Mig.migrate(0, 7, "daxpy", Dim3{32, 1, 1},
                                      P.args(0, 2.0));
  EXPECT_FALSE(Range.Ok);
  EXPECT_NE(Range.Error.find("out of range"), std::string::npos)
      << Range.Error;
  EXPECT_EQ(counterValue(SReg, "sched.migrations"), 0u);
}

// ---------------------------------------------------------------------------
// Placement scheduler.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, OffModePinsDeviceZeroByteIdentically) {
  const std::vector<uint8_t> Expected = baselineBytes(4);

  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  SchedConfig SC; // Off
  Scheduler Sched(*P.Jit, SC);
  for (unsigned I = 0; I != 4; ++I) {
    std::string Err;
    unsigned PlacedOn = 99;
    ASSERT_EQ(Sched.launch(
                  "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                  [&](unsigned D) { return P.args(D, 2.0); }, &Err, &PlacedOn),
              GpuError::Success)
        << Err;
    EXPECT_EQ(PlacedOn, 0u);
  }
  P.Jit->drain();
  EXPECT_EQ(P.readY(0), Expected);
  EXPECT_EQ(counterValue(Sched.registry(), "sched.placements.dev0"), 4u);
  EXPECT_EQ(counterValue(Sched.registry(), "sched.placements.dev1"), 0u);

  // Off placements target the default stream — launchKernel equivalence.
  Placement Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, 0u);
  EXPECT_EQ(Pl.S, nullptr);
}

TEST(SchedulerTest, StaticModeRoundRobinsAcrossThePool) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim,
                          GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  SchedConfig SC;
  SC.Mode = SchedMode::Static;
  Scheduler Sched(*P.Jit, SC);
  for (unsigned I = 0; I != 8; ++I) {
    Placement Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
    EXPECT_EQ(Pl.DeviceIndex, I % 4);
    EXPECT_NE(Pl.S, nullptr);
  }
  for (unsigned D = 0; D != 4; ++D)
    EXPECT_EQ(counterValue(Sched.registry(),
                           "sched.placements.dev" + std::to_string(D)),
              2u);
}

TEST(SchedulerTest, LoadModeRoutesAroundBusyDevices) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  SchedConfig SC;
  SC.Mode = SchedMode::Load;
  Scheduler Sched(*P.Jit, SC);

  // Preload half a second of background work on device 0: its published
  // load gauge rises, so load mode must route to the idle device 1.
  P.Mgr.device(0).defaultStream().enqueue(0.5, "background");
  EXPECT_GT(P.Mgr.device(0).loadGaugeNs(), 0u);
  Placement Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, 1u);

  // Now bury device 1 deeper — the choice flips back.
  P.Mgr.device(1).defaultStream().enqueue(2.0, "background");
  Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, 0u);
}

TEST(SchedulerTest, PerfModeRanksByRooflinePrediction) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  SchedConfig SC;
  SC.Mode = SchedMode::Perf;
  Scheduler Sched(*P.Jit, SC);

  EXPECT_LT(Sched.predictedSeconds("daxpy", 0, Dim3{2, 1, 1}, Dim3{32, 1, 1}),
            0.0)
      << "no profile noted yet";
  Sched.noteKernelProfile("daxpy", pir::analysis::computeStaticProfile(*P.F));

  double T0 = Sched.predictedSeconds("daxpy", 0, Dim3{2, 1, 1},
                                     Dim3{32, 1, 1});
  double T1 = Sched.predictedSeconds("daxpy", 1, Dim3{2, 1, 1},
                                     Dim3{32, 1, 1});
  ASSERT_GT(T0, 0.0);
  ASSERT_GT(T1, 0.0);
  ASSERT_NE(T0, T1) << "the two arches must rank differently";

  // Perf mode scores each candidate as ready time (the load gauge) plus the
  // predicted kernel seconds on that device's arch — setup work (copies,
  // program load) leaves the gauges non-zero, so fold them in exactly.
  double S0 = P.Mgr.device(0).loadGaugeNs() * 1e-9 + T0;
  double S1 = P.Mgr.device(1).loadGaugeNs() * 1e-9 + T1;
  ASSERT_NE(S0, S1);
  const unsigned Fastest = S0 < S1 ? 0u : 1u;
  Placement Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, Fastest);

  // Burying the winner under background work must flip the decision: the
  // model alone no longer wins against a second of queued load.
  P.Mgr.device(Fastest).defaultStream().enqueue(1.0, "background");
  Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, 1u - Fastest);
}

TEST(SchedulerTest, SlackKernelsPlaceByReadyTimeAlone) {
  DaxpyPool P(poolConfig({GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  SchedConfig SC;
  SC.Mode = SchedMode::Perf;
  Scheduler Sched(*P.Jit, SC);
  Sched.noteKernelProfile("daxpy", pir::analysis::computeStaticProfile(*P.F));

  // An installed timeline report marking daxpy pure slack: placement
  // ignores the model, takes the idle device, and counts the bias.
  proteus::analysis::CriticalPathReport Rep;
  Rep.ByName.push_back(proteus::analysis::NameCriticality{"daxpy", 1000, 0, 0.0});
  Sched.setCriticalPathReport(Rep);

  P.Mgr.device(0).defaultStream().enqueue(0.5, "background");
  Placement Pl = Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(Pl.DeviceIndex, 1u);
  EXPECT_EQ(counterValue(Sched.registry(), "sched.placements.slack"), 1u);

  // A critical kernel gets the full perf scoring, not the slack bias.
  Rep.ByName[0].CriticalNs = 1000;
  Rep.ByName[0].CriticalityFraction = 1.0;
  Sched.setCriticalPathReport(Rep);
  Sched.place("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1});
  EXPECT_EQ(counterValue(Sched.registry(), "sched.placements.slack"), 1u);
}

// ---------------------------------------------------------------------------
// Replay arch override + publish warm-start.
// ---------------------------------------------------------------------------

/// Captures one daxpy launch into a replayable artifact on \p Arch.
std::optional<capture::CaptureArtifact> captureDaxpy(GpuArch Arch,
                                                     std::string *Fail) {
  Context Ctx;
  Module M(Ctx, "sched_capture_app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  std::string Dir = fs::makeTempDirectory("proteus-sched-capture");
  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Capture = true;
  JC.CaptureDir = Dir;

  std::optional<capture::CaptureArtifact> Artifact;
  {
    Device Dev(getTarget(Arch), 1ull << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      *Fail = "load: " + LP.error();
      fs::removeAllFiles(Dir);
      return std::nullopt;
    }
    DevicePtr X = 0, Y = 0;
    gpuMalloc(Dev, &X, N * 8);
    gpuMalloc(Dev, &Y, N * 8);
    std::vector<double> HX(N), HY(N);
    for (uint32_t I = 0; I != N; ++I) {
      HX[I] = 0.5 * I - 7.0;
      HY[I] = 1.0;
    }
    gpuMemcpyHtoD(Dev, X, HX.data(), N * 8);
    gpuMemcpyHtoD(Dev, Y, HY.data(), N * 8);
    std::vector<KernelArg> Args = {{sem::boxF64(2.0)}, {X}, {Y}, {N}};
    std::string Err;
    if (LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err) !=
        GpuError::Success) {
      *Fail = "launch: " + Err;
      fs::removeAllFiles(Dir);
      return std::nullopt;
    }
    Jit.drain();
  }
  std::vector<std::string> Files = fs::listFiles(Dir);
  if (Files.size() != 1) {
    *Fail = "expected one artifact, found " + std::to_string(Files.size());
    fs::removeAllFiles(Dir);
    return std::nullopt;
  }
  std::string Error;
  Artifact = capture::readArtifactFile(Dir + "/" + Files[0], &Error);
  fs::removeAllFiles(Dir);
  if (!Artifact)
    *Fail = "read: " + Error;
  return Artifact;
}

TEST(ReplayRetargetTest, ArchOverrideReplaysByteIdentical) {
  std::string Fail;
  std::optional<capture::CaptureArtifact> A =
      captureDaxpy(GpuArch::AmdGcnSim, &Fail);
  ASSERT_TRUE(A) << Fail;

  ReplayOptions Opts;
  Opts.Jit.UsePersistentCache = false;
  Opts.ArchOverride = GpuArch::NvPtxSim;
  ReplayResult R = replayArtifact(*A, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.OutputMatch)
      << R.MismatchedRegions << " region(s) diverge: " << R.FirstMismatch;
  // The hash keys the overridden arch — it must differ from the recording.
  EXPECT_FALSE(R.HashMatch);
  EXPECT_GT(R.CompilationsUsed, 0u);

  // Overriding to the *recorded* arch is a plain full-strength replay.
  Opts.ArchOverride = GpuArch::AmdGcnSim;
  ReplayResult Same = replayArtifact(*A, Opts);
  EXPECT_TRUE(Same.passed()) << Same.Error << Same.FirstMismatch;
}

TEST(ReplayRetargetTest, PublishWarmsEveryArchForAFreshRuntime) {
  std::string Fail;
  std::optional<capture::CaptureArtifact> A =
      captureDaxpy(GpuArch::AmdGcnSim, &Fail);
  ASSERT_TRUE(A) << Fail;

  std::string CacheDir = fs::makeTempDirectory("proteus-sched-publish");
  ReplayOptions Opts;
  Opts.CacheDir = CacheDir;

  // Publish pass: compile the specialization into the shared cache for
  // both arches (what proteus-replay --publish --device-arch=... runs).
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    Opts.ArchOverride = Arch;
    ReplayResult Cold = replayArtifact(*A, Opts);
    EXPECT_TRUE(Cold.Ok && Cold.OutputMatch)
        << gpuArchName(Arch) << ": " << Cold.Error << Cold.FirstMismatch;
    EXPECT_GT(Cold.CompilationsUsed, 0u);
  }

  // A fresh runtime against the published cache starts warm on every arch:
  // zero cold compiles anywhere in the pool.
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    Opts.ArchOverride = Arch;
    ReplayResult Warm = replayArtifact(*A, Opts);
    EXPECT_TRUE(Warm.Ok && Warm.OutputMatch)
        << gpuArchName(Arch) << ": " << Warm.Error << Warm.FirstMismatch;
    EXPECT_EQ(Warm.CompilationsUsed, 0u)
        << gpuArchName(Arch) << " must be served from the published cache";
  }
  fs::removeAllFiles(CacheDir);
}

// ---------------------------------------------------------------------------
// Migration storm (the TSan lane).
// ---------------------------------------------------------------------------

TEST(MigrationStormTest, ConcurrentLaunchesAndMigrationsAreRaceFree) {
  DeviceManager::Config C = DeviceManager::configFromEnvironment();
  C.MemoryBytesPerDevice = 1ull << 22;
  if (C.NumDevices < 2) {
    C.NumDevices = 2;
    if (C.Archs.empty())
      C.Archs = {GpuArch::AmdGcnSim, GpuArch::NvPtxSim};
  }

  JitConfig JC = JitConfig::fromEnvironment();
  JC.UsePersistentCache = false;
  JC.Capture = false;
  DaxpyPool P(C, JC);

  SchedConfig SC;
  SC.Mode = SchedMode::Load;
  Scheduler Sched(*P.Jit, SC);
  metrics::Registry MReg;
  Migrator Mig(*P.Jit, MReg);

  constexpr unsigned Launchers = 2;
  constexpr unsigned LaunchesPerThread = 24;
  constexpr unsigned Migrations = 6;
  std::vector<std::string> LaunchErrors(Launchers);
  std::vector<std::string> MigrateErrors;
  std::atomic<uint64_t> Launched{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Launchers; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != LaunchesPerThread; ++I) {
        std::string Err;
        if (Sched.launch(
                "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                [&](unsigned D) { return P.args(D, 2.0); },
                &Err) != GpuError::Success) {
          LaunchErrors[T] = Err.empty() ? "unknown launch error" : Err;
          return;
        }
        Launched.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Threads.emplace_back([&] {
    for (unsigned I = 0; I != Migrations; ++I) {
      unsigned Src = I % 2, Dst = (I + 1) % 2;
      MigrationResult R = Mig.migrate(Src, Dst, "daxpy", Dim3{32, 1, 1},
                                      P.args(Src, 2.0));
      if (!R.Ok)
        MigrateErrors.push_back(R.Error);
    }
  });
  for (std::thread &T : Threads)
    T.join();
  P.Jit->drain();

  for (unsigned T = 0; T != Launchers; ++T)
    EXPECT_TRUE(LaunchErrors[T].empty()) << "launcher " << T << ": "
                                         << LaunchErrors[T];
  for (const std::string &E : MigrateErrors)
    ADD_FAILURE() << "migration failed: " << E;
  EXPECT_EQ(Launched.load(), uint64_t(Launchers) * LaunchesPerThread);
  EXPECT_EQ(counterValue(MReg, "sched.migrations"), Migrations);
  // Retargets never re-parse: one front-end parse however the storm raced.
  EXPECT_EQ(P.Jit->stats().BitcodeParses, 1u);
}

} // namespace
