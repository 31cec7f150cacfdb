//===- sched_test.cpp - heterogeneous placement scheduler battery --------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The placement scheduler (src/sched) and the mixed-arch pool under it:
//
//  * the strict PROTEUS_DEVICE_ARCHS grammar rejects malformed lists with
//    one counted config error;
//  * cross-device event elapsed-time queries return a well-defined delta
//    (one global simulated-time coordinate) and count a diagnostic;
//  * a device attached after the first launch flips the pool into
//    symbolic-globals linkage, so the single-device object is not served
//    to it and its launches recompile cleanly; in a pool, one object per
//    arch resolves device globals against each device's own binding;
//  * the placement scheduler: off pins device 0 byte-identically, static
//    round-robins, load routes around busy devices, and perf ranks by the
//    roofline prediction;
//  * replay arch-override and --publish-style cache warming replay
//    byte-identical and leave a fresh runtime with zero cold compiles.
//
// The placement storm is TSan-ready (tools/ci_tsan.sh re-runs this file
// with PROTEUS_NUM_DEVICES=4 and mixed PROTEUS_DEVICE_ARCHS): worker
// threads only record results; all gtest assertions happen on the main
// thread after join.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Roofline.h"
#include "capture/Artifact.h"
#include "codegen/Target.h"
#include "gpu/DeviceManager.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "jit/AotCompiler.h"
#include "jit/Program.h"
#include "jit/Replay.h"
#include "sched/Scheduler.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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
/// Every device gets its own x/y with the same contents, so a launch computes
/// the same bytes wherever the scheduler places it (args(D) names device D's
/// buffers, the shape Scheduler::launch's ArgsFor expects).
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
/// device, no scheduler.
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
// Global linkage in a pool.
// ---------------------------------------------------------------------------

/// A kernel reading a device global: y[i] = weights[i & 7] * x[i].
CompiledProgram buildGscaleProgram(Context &Ctx) {
  Module M(Ctx, "pool_globals_app");
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
  return aotCompile(M, AO);
}

TEST(LateAttachTest, LateAttachedDeviceReusesGlobalFreeObject) {
  const std::vector<uint8_t> Expected = baselineBytes(2);

  // Single-device start: objects bake resolved global addresses into the
  // IR (symbolicGlobals off). daxpy references no device global, so its
  // object is the same in either linkage mode.
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
  for (unsigned I = 0; I != 2; ++I)
    ASSERT_EQ(Jit.launchKernel("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                               &Err),
              GpuError::Success)
        << Err;
  EXPECT_EQ(Jit.stats().Compilations, 1u);

  // Attaching the second device flips the pool into symbolic-globals mode,
  // which leaves a global-free kernel's fingerprint alone: the late
  // device's first launch is served the cached object.
  ASSERT_EQ(Jit.attachDevice(Late), 1u);
  ASSERT_TRUE(Late.claimRange(X, N * 8));
  ASSERT_TRUE(Late.claimRange(Y, N * 8));
  gpuMemcpyHtoD(Late, X, HX.data(), N * 8);
  gpuMemcpyHtoD(Late, Y, HY.data(), N * 8);
  for (unsigned I = 0; I != 2; ++I)
    ASSERT_EQ(Jit.launchKernelOn(1, "daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                 Args, nullptr, &Err),
              GpuError::Success)
        << Err;
  Jit.drain();
  EXPECT_EQ(Jit.stats().Compilations, 1u)
      << "a global-free object is the same in both linkage modes";
  std::vector<uint8_t> Got(N * 8);
  gpuMemcpyDtoH(Late, Got.data(), Y, N * 8);
  EXPECT_EQ(Got, Expected);
}

TEST(LateAttachTest, LateAttachedDeviceForcesLinkageModeRecompile) {
  // gscale reads the device global `weights`: the single-device object
  // bakes device A's address into the IR, so the late device must get a
  // symbolic object that its load resolves against its own binding.
  Context Ctx;
  CompiledProgram Prog = buildGscaleProgram(Ctx);
  Device A(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Device Late(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Late.setOrdinal(1);
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(A, Prog.ModuleId, JC);
  LoadedProgram LP(A, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  std::vector<double> HX(N), HWA, HWLate;
  for (uint32_t I = 0; I != N; ++I)
    HX[I] = 0.25 * I - 3.0;
  for (uint32_t I = 0; I != 8; ++I) {
    HWA.push_back(1.5 + 0.5 * I);
    HWLate.push_back(11.5 + 0.5 * I);
  }
  DevicePtr X = 0, Y = 0;
  ASSERT_EQ(gpuMalloc(A, &X, N * 8), GpuError::Success);
  ASSERT_EQ(gpuMalloc(A, &Y, N * 8), GpuError::Success);
  gpuMemcpyHtoD(A, X, HX.data(), N * 8);
  DevicePtr WA = A.getSymbolAddress("weights");
  ASSERT_NE(WA, 0u) << "program load must bind the global";
  gpuMemcpyHtoD(A, WA, HWA.data(), 8 * 8);

  std::vector<KernelArg> Args = {{X}, {Y}, {N}};
  std::string Err;
  for (unsigned I = 0; I != 2; ++I)
    ASSERT_EQ(Jit.launchKernel("gscale", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                               &Err),
              GpuError::Success)
        << Err;
  EXPECT_EQ(Jit.stats().Compilations, 1u);

  ASSERT_EQ(Jit.attachDevice(Late), 1u);
  ASSERT_TRUE(Late.claimRange(X, N * 8));
  ASSERT_TRUE(Late.claimRange(Y, N * 8));
  gpuMemcpyHtoD(Late, X, HX.data(), N * 8);
  // The late device binds its own weights, after a pad so the address
  // differs from device A's.
  DevicePtr Pad = 0;
  ASSERT_EQ(gpuMalloc(Late, &Pad, 256), GpuError::Success);
  std::vector<uint8_t> Bytes(8 * 8);
  std::memcpy(Bytes.data(), HWLate.data(), Bytes.size());
  DevicePtr WLate = Late.registerGlobal("weights", Bytes.size(), Bytes);
  ASSERT_NE(WLate, 0u);
  ASSERT_NE(WLate, WA) << "the bindings must differ to tell them apart";
  for (unsigned I = 0; I != 2; ++I)
    ASSERT_EQ(Jit.launchKernelOn(1, "gscale", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                 Args, nullptr, &Err),
              GpuError::Success)
        << Err;
  Jit.drain();
  EXPECT_EQ(Jit.stats().Compilations, 2u)
      << "stale linkage-mode object must not be served";
  std::vector<double> Got(N);
  gpuMemcpyDtoH(Late, Got.data(), Y, N * 8);
  for (uint32_t I = 0; I != N; ++I)
    ASSERT_EQ(Got[I], HWLate[I & 7] * HX[I]) << "element " << I;
}

TEST(PoolGlobalsTest, SymbolicGlobalsResolveAgainstEachDevicesBinding) {
  Context Ctx;
  CompiledProgram Prog = buildGscaleProgram(Ctx);

  // Two amd devices share one compiled object and the nv device gets its
  // own; in a pool every object links globals symbolically, so each
  // device's load resolves `weights` against that device's own binding.
  DeviceManager Mgr(poolConfig(
      {GpuArch::AmdGcnSim, GpuArch::AmdGcnSim, GpuArch::NvPtxSim}));
  constexpr unsigned NumDevices = 3;
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(Mgr.device(0), Prog.ModuleId, JC);
  for (unsigned D = 1; D != NumDevices; ++D)
    Jit.attachDevice(Mgr.device(D));

  std::vector<double> HX(N);
  for (uint32_t I = 0; I != N; ++I)
    HX[I] = 0.25 * I - 3.0;
  DevicePtr X[NumDevices] = {}, Y[NumDevices] = {};
  for (unsigned D = 0; D != NumDevices; ++D) {
    ASSERT_EQ(gpuMalloc(Mgr.device(D), &X[D], N * 8), GpuError::Success);
    ASSERT_EQ(gpuMalloc(Mgr.device(D), &Y[D], N * 8), GpuError::Success);
    gpuMemcpyHtoD(Mgr.device(D), X[D], HX.data(), N * 8);
  }
  LoadedProgram LP(Mgr.device(0), Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  // Device 0's weights come from the program load; every other device binds
  // its own copy, with other values, after a pad so the addresses differ.
  std::vector<double> HW[NumDevices];
  for (unsigned D = 0; D != NumDevices; ++D)
    for (uint32_t I = 0; I != 8; ++I)
      HW[D].push_back(1.5 + 0.5 * I + 10.0 * D);
  DevicePtr WAddr[NumDevices] = {};
  WAddr[0] = Mgr.device(0).getSymbolAddress("weights");
  ASSERT_NE(WAddr[0], 0u) << "program load must bind the global";
  gpuMemcpyHtoD(Mgr.device(0), WAddr[0], HW[0].data(), 8 * 8);
  for (unsigned D = 1; D != NumDevices; ++D) {
    DevicePtr Pad = 0;
    ASSERT_EQ(gpuMalloc(Mgr.device(D), &Pad, 256 * D), GpuError::Success);
    std::vector<uint8_t> Bytes(8 * 8);
    std::memcpy(Bytes.data(), HW[D].data(), Bytes.size());
    WAddr[D] = Mgr.device(D).registerGlobal("weights", Bytes.size(), Bytes);
    ASSERT_NE(WAddr[D], 0u);
    for (unsigned E = 0; E != D; ++E)
      ASSERT_NE(WAddr[D], WAddr[E]) << "the bindings must differ to tell them apart";
  }

  for (unsigned D = 0; D != NumDevices; ++D) {
    std::string Err;
    ASSERT_EQ(Jit.launchKernelOn(D, "gscale", Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                 {{X[D]}, {Y[D]}, {N}}, nullptr, &Err),
              GpuError::Success)
        << "device " << D << ": " << Err;
  }
  Jit.drain();
  EXPECT_EQ(Jit.stats().Compilations, 2u) << "one object per arch";
  for (unsigned D = 0; D != NumDevices; ++D) {
    std::vector<double> Got(N);
    gpuMemcpyDtoH(Mgr.device(D), Got.data(), Y[D], N * 8);
    for (uint32_t I = 0; I != N; ++I)
      ASSERT_EQ(Got[I], HW[D][I & 7] * HX[I])
          << "device " << D << " (" << gpuArchName(Mgr.device(D).target().Arch)
          << ") element " << I;
  }
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
      fs::removeTree(Dir);
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
      fs::removeTree(Dir);
      return std::nullopt;
    }
    Jit.drain();
  }
  std::vector<std::string> Files = fs::listFiles(Dir);
  if (Files.size() != 1) {
    *Fail = "expected one artifact, found " + std::to_string(Files.size());
    fs::removeTree(Dir);
    return std::nullopt;
  }
  std::string Error;
  Artifact = capture::readArtifactFile(Dir + "/" + Files[0], &Error);
  fs::removeTree(Dir);
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
  fs::removeTree(CacheDir);
}

// ---------------------------------------------------------------------------
// Placement storm (the TSan lane).
// ---------------------------------------------------------------------------

TEST(PlacementStormTest, ConcurrentPlacedLaunchesAreRaceFree) {
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

  constexpr unsigned Launchers = 3;
  constexpr unsigned LaunchesPerThread = 24;
  std::vector<std::string> LaunchErrors(Launchers);
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
  for (std::thread &T : Threads)
    T.join();
  P.Jit->drain();

  for (unsigned T = 0; T != Launchers; ++T)
    EXPECT_TRUE(LaunchErrors[T].empty()) << "launcher " << T << ": "
                                         << LaunchErrors[T];
  EXPECT_EQ(Launched.load(), uint64_t(Launchers) * LaunchesPerThread);
  // Each placed launch raises its device's load gauge, so load placement
  // reaches the whole pool (and with it every arch in the pool).
  for (unsigned D = 0; D != P.Mgr.numDevices(); ++D)
    EXPECT_GT(counterValue(Sched.registry(),
                           "sched.placements.dev" + std::to_string(D)),
              0u)
        << "device " << D;
  // Every arch in the pool compiles from the parse-once module index: one
  // front-end parse however the storm raced.
  EXPECT_EQ(P.Jit->stats().BitcodeParses, 1u);
}

} // namespace
