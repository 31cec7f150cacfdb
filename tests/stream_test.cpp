//===- stream_test.cpp - stream/event engine and multi-device battery ------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Semantics battery for the concurrent execution engine: per-stream FIFO
// timelines, cross-stream independence (overlap), event happens-before
// edges, elapsed-time monotonicity, free diagnostics, DeviceManager pool
// construction, per-stream trace lanes, and the multi-device JIT: one
// compile per (specialization, arch) loaded onto every device that
// launches it, with 1-device vs N-device runs byte-identical.
//
// The launch-storm test is TSan-ready (tools/ci_tsan.sh re-runs this file
// with PROTEUS_NUM_DEVICES/PROTEUS_DEFAULT_STREAMS raised and
// PROTEUS_TIER=on PROTEUS_ASYNC=fallback): worker threads only record
// results; all gtest assertions happen on the main thread after join.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"
#include "TestUtil.h"

#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "gpu/DeviceManager.h"
#include "jit/AotCompiler.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr unsigned NumKernels = 3;
constexpr unsigned NumSpecs = 2;
constexpr uint32_t N = 64; // elements per buffer

struct WorkItem {
  std::string Symbol;
  double Sf;
  int32_t Si;
  unsigned OutIndex;
};

std::vector<WorkItem> makeWorkItems() {
  std::vector<WorkItem> Items;
  for (unsigned K = 0; K != NumKernels; ++K)
    for (unsigned S = 0; S != NumSpecs; ++S)
      Items.push_back(WorkItem{"rk" + std::to_string(K), 1.25 + 0.5 * S,
                               static_cast<int32_t>(3 + S),
                               K * NumSpecs + S});
  return Items;
}

std::unique_ptr<Module> buildProgramModule(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "stream_app");
  for (unsigned K = 0; K != NumKernels; ++K)
    buildRandomKernelInto(*M, /*Seed=*/1000 + 17 * K,
                          "rk" + std::to_string(K));
  return M;
}

CompiledProgram compileFor(GpuArch Arch) {
  Context Ctx;
  auto M = buildProgramModule(Ctx);
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  return aotCompile(*M, AO);
}

/// A device pool sharing one JitRuntime: the program image is loaded onto
/// every device (attaching it), each device gets its own input and
/// per-item output buffers, and launches go through launchKernelOn.
struct PoolHarness {
  DeviceManager Mgr;
  JitRuntime Jit;
  std::vector<std::unique_ptr<LoadedProgram>> LPs;
  std::vector<DevicePtr> Ins;
  std::vector<std::vector<DevicePtr>> Outs; // [device][item]

  PoolHarness(const std::vector<const CompiledProgram *> &ProgForDevice,
              const DeviceManager::Config &C, const JitConfig &JC)
      : Mgr(C), Jit(Mgr.device(0), ProgForDevice[0]->ModuleId, JC) {
    for (unsigned D = 0; D != Mgr.numDevices(); ++D) {
      LPs.emplace_back(new LoadedProgram(
          Mgr.device(D), *ProgForDevice[D % ProgForDevice.size()], &Jit));
      EXPECT_TRUE(LPs.back()->ok()) << LPs.back()->error();
    }
    std::vector<double> HIn(N);
    for (uint32_t I = 0; I != N; ++I)
      HIn[I] = 0.25 * I - 3.0;
    Ins.resize(Mgr.numDevices());
    Outs.resize(Mgr.numDevices());
    for (unsigned D = 0; D != Mgr.numDevices(); ++D) {
      Device &Dev = Mgr.device(D);
      EXPECT_EQ(gpuMalloc(Dev, &Ins[D], N * 8), GpuError::Success);
      gpuMemcpyHtoD(Dev, Ins[D], HIn.data(), N * 8);
      Outs[D].resize(NumKernels * NumSpecs);
      for (DevicePtr &P : Outs[D])
        EXPECT_EQ(gpuMalloc(Dev, &P, N * 8), GpuError::Success);
    }
  }

  GpuError launch(unsigned D, const WorkItem &W, Stream *S,
                  std::string *Err) {
    std::vector<KernelArg> Args = {{Ins[D]},
                                   {Outs[D][W.OutIndex]},
                                   {N},
                                   {sem::boxF64(W.Sf)},
                                   {static_cast<uint64_t>(
                                       static_cast<uint32_t>(W.Si))}};
    return Jit.launchKernelOn(D, W.Symbol, Dim3{2, 1, 1}, Dim3{32, 1, 1},
                              Args, S, Err);
  }

  std::vector<uint8_t> readOut(unsigned D, unsigned Index) {
    std::vector<uint8_t> Bytes(N * 8);
    gpuMemcpyDtoH(Mgr.device(D), Bytes.data(), Outs[D][Index], N * 8);
    return Bytes;
  }
};

/// Single-device synchronous reference: expected bytes per work item.
std::vector<std::vector<uint8_t>> baselineResults(const CompiledProgram &Prog,
                                                  const JitConfig &JCIn) {
  JitConfig JC = JCIn;
  JC.UsePersistentCache = false;
  JC.Async = JitConfig::AsyncMode::Sync;
  DeviceManager::Config C;
  C.NumDevices = 1;
  C.MemoryBytesPerDevice = 1ull << 24;
  std::vector<const CompiledProgram *> Progs = {&Prog};
  PoolHarness H(Progs, C, JC);
  std::vector<std::vector<uint8_t>> Out;
  for (const WorkItem &W : makeWorkItems()) {
    std::string Err;
    EXPECT_EQ(H.launch(0, W, nullptr, &Err), GpuError::Success) << Err;
  }
  H.Jit.drain();
  for (unsigned I = 0; I != NumKernels * NumSpecs; ++I)
    Out.push_back(H.readOut(0, I));
  return Out;
}

// -- Device-level stream and event semantics --------------------------------

TEST(StreamTest, SameStreamOpsAreFifo) {
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  DevicePtr A = 0;
  ASSERT_EQ(gpuMalloc(Dev, &A, 1 << 16), GpuError::Success);
  std::vector<uint8_t> H(1 << 16, 7);

  Stream *S = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S), GpuError::Success);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(&S->device(), &Dev);
  EXPECT_DOUBLE_EQ(S->tailSeconds(), 0.0);

  Event E0, E1, E2;
  ASSERT_EQ(gpuEventRecord(Dev, E0, S), GpuError::Success);
  EXPECT_DOUBLE_EQ(E0.TimeSec, 0.0);

  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S),
            GpuError::Success);
  double T1 = S->tailSeconds();
  EXPECT_GT(T1, 0.0) << "transfers must cost simulated time";
  ASSERT_EQ(gpuEventRecord(Dev, E1, S), GpuError::Success);
  EXPECT_DOUBLE_EQ(E1.TimeSec, T1);

  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S),
            GpuError::Success);
  double T2 = S->tailSeconds();
  // FIFO: the second equal-size copy starts where the first ended.
  EXPECT_DOUBLE_EQ(T2, 2.0 * T1);
  ASSERT_EQ(gpuEventRecord(Dev, E2, S), GpuError::Success);

  // Event stamps along one stream are monotone; elapsed time matches the
  // timeline delta and is non-negative in record order.
  EXPECT_LT(E0.TimeSec, E1.TimeSec);
  EXPECT_LT(E1.TimeSec, E2.TimeSec);
  double Ms = -1.0;
  ASSERT_EQ(gpuEventElapsedTime(&Ms, E1, E2), GpuError::Success);
  EXPECT_NEAR(Ms, (T2 - T1) * 1e3, 1e-9);
  EXPECT_GE(Ms, 0.0);
  ASSERT_EQ(gpuEventElapsedTime(&Ms, E0, E2), GpuError::Success);
  EXPECT_NEAR(Ms, T2 * 1e3, 1e-9);
}

TEST(StreamTest, CrossStreamTimelinesOverlap) {
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  DevicePtr A = 0, B = 0;
  ASSERT_EQ(gpuMalloc(Dev, &A, 1 << 16), GpuError::Success);
  ASSERT_EQ(gpuMalloc(Dev, &B, 1 << 16), GpuError::Success);
  std::vector<uint8_t> H(1 << 16, 9);

  Stream *S1 = nullptr, *S2 = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S1), GpuError::Success);
  ASSERT_EQ(gpuStreamCreate(Dev, &S2), GpuError::Success);
  EXPECT_NE(S1->id(), S2->id());

  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S1),
            GpuError::Success);
  double T1 = S1->tailSeconds();
  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, B, H.data(), H.size(), S2),
            GpuError::Success);
  // Independent timelines: the second stream's copy overlaps the first, so
  // the device makespan is one copy, not two.
  EXPECT_DOUBLE_EQ(S2->tailSeconds(), T1);
  EXPECT_DOUBLE_EQ(Dev.simulatedSeconds(), T1);

  // Effects are applied eagerly regardless of timelines.
  std::vector<uint8_t> R(1 << 16);
  ASSERT_EQ(gpuMemcpyDtoH(Dev, R.data(), B, R.size()), GpuError::Success);
  EXPECT_EQ(R, H);

  // A synchronous (legacy default stream) op is a full barrier: it starts
  // at the makespan, after both streams' work.
  double Makespan = Dev.simulatedSeconds();
  ASSERT_EQ(gpuMemset(Dev, A, 0, 256), GpuError::Success);
  EXPECT_GT(Dev.defaultStream().tailSeconds(), Makespan);

  // Streams are drainable; synchronize is a timing no-op here.
  EXPECT_EQ(gpuStreamSynchronize(Dev, S1), GpuError::Success);
  EXPECT_EQ(gpuDeviceSynchronize(Dev), GpuError::Success);
}

TEST(StreamTest, NullStreamDegradesToLegacyBarrier) {
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  DevicePtr A = 0;
  ASSERT_EQ(gpuMalloc(Dev, &A, 1 << 16), GpuError::Success);
  std::vector<uint8_t> H(1 << 16, 3);

  Stream *S1 = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S1), GpuError::Success);
  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S1),
            GpuError::Success);
  double T1 = S1->tailSeconds();

  // Null stream == the synchronous call: barrier at the makespan, charged
  // to the default stream.
  ASSERT_EQ(gpuMemsetAsync(Dev, A, 0, 1 << 16, nullptr), GpuError::Success);
  EXPECT_GT(Dev.defaultStream().tailSeconds(), T1);

  // An async op on a stream of a different device is rejected.
  Device Other(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Stream *SO = nullptr;
  ASSERT_EQ(gpuStreamCreate(Other, &SO), GpuError::Success);
  EXPECT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), SO),
            GpuError::InvalidValue);
}

TEST(StreamTest, EventHappensBeforeAcrossStreamsAndDevices) {
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  DevicePtr A = 0;
  ASSERT_EQ(gpuMalloc(Dev, &A, 1 << 18), GpuError::Success);
  std::vector<uint8_t> H(1 << 18, 1);

  Stream *S1 = nullptr, *S2 = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S1), GpuError::Success);
  ASSERT_EQ(gpuStreamCreate(Dev, &S2), GpuError::Success);

  // Big copy on S1, then an event marking its completion.
  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S1),
            GpuError::Success);
  Event Ev;
  ASSERT_EQ(gpuEventRecord(Dev, Ev, S1), GpuError::Success);
  ASSERT_TRUE(Ev.recorded());
  EXPECT_GT(Ev.TimeSec, 0.0);

  // S2 has done nothing; after waiting on the event all later S2 work
  // starts no earlier than the event stamp.
  EXPECT_DOUBLE_EQ(S2->tailSeconds(), 0.0);
  ASSERT_EQ(gpuStreamWaitEvent(S2, Ev), GpuError::Success);
  EXPECT_GE(S2->tailSeconds(), Ev.TimeSec);
  ASSERT_EQ(gpuMemsetAsync(Dev, A, 0, 256, S2), GpuError::Success);
  EXPECT_GT(S2->tailSeconds(), Ev.TimeSec);

  // Cross-device waits are legal: timelines share one global simulated
  // time coordinate.
  Device Dev2(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  Stream *S3 = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev2, &S3), GpuError::Success);
  ASSERT_EQ(gpuStreamWaitEvent(S3, Ev), GpuError::Success);
  EXPECT_GE(S3->tailSeconds(), Ev.TimeSec);

  EXPECT_EQ(gpuEventSynchronize(Ev), GpuError::Success);
}

TEST(StreamTest, UnrecordedEventsAreInvalid) {
  Event Never;
  EXPECT_FALSE(Never.recorded());
  EXPECT_EQ(gpuEventSynchronize(Never), GpuError::InvalidValue);

  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 20);
  Event Ok;
  ASSERT_EQ(gpuEventRecord(Dev, Ok, nullptr), GpuError::Success);
  double Ms = 0.0;
  EXPECT_EQ(gpuEventElapsedTime(&Ms, Never, Ok), GpuError::InvalidValue);
  EXPECT_EQ(gpuEventElapsedTime(&Ms, Ok, Never), GpuError::InvalidValue);
  Stream *S = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S), GpuError::Success);
  EXPECT_EQ(gpuStreamWaitEvent(S, Never), GpuError::InvalidValue);
}

// -- Multi-stream kernel overlap (the tentpole's measurable speedup) --------

TEST(StreamTest, FourStreamsGiveAtLeastThreeTimesScaling) {
  CompiledProgram Prog = compileFor(GpuArch::AmdGcnSim);
  ASSERT_FALSE(Prog.Image.KernelObjects.empty());
  const std::vector<uint8_t> &Obj = Prog.Image.KernelObjects.at("rk0");

  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;

  DevicePtr In = 0, Out = 0;
  ASSERT_EQ(gpuMalloc(Dev, &In, N * 8), GpuError::Success);
  ASSERT_EQ(gpuMalloc(Dev, &Out, N * 8), GpuError::Success);
  std::vector<double> HIn(N, 1.5);
  gpuMemcpyHtoD(Dev, In, HIn.data(), N * 8);
  std::vector<KernelArg> Args = {
      {In}, {Out}, {N}, {sem::boxF64(1.25)}, {uint64_t(3)}};

  std::vector<Stream *> Streams;
  for (unsigned I = 0; I != 4; ++I) {
    Stream *S = nullptr;
    ASSERT_EQ(gpuStreamCreate(Dev, &S), GpuError::Success);
    Streams.push_back(S);
  }

  // Warm-up launch: the perf model's first-touch effects (cold caches)
  // make the very first execution slightly more expensive; measure the
  // steady state.
  ASSERT_EQ(gpuLaunchKernelAsync(Dev, *K, Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                 Args, Streams[0], &Err),
            GpuError::Success)
      << Err;

  // One kernel alone: the unit of work.
  Dev.resetSimulatedTime();
  ASSERT_EQ(gpuLaunchKernelAsync(Dev, *K, Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                 Args, Streams[0], &Err),
            GpuError::Success)
      << Err;
  double Single = Dev.simulatedSeconds();
  ASSERT_GT(Single, 0.0);

  // Four identical kernels on four streams overlap: the makespan stays one
  // kernel while the aggregate busy time is four.
  Dev.resetSimulatedTime();
  double Busy = 0.0;
  for (Stream *S : Streams) {
    ASSERT_EQ(gpuLaunchKernelAsync(Dev, *K, Dim3{2, 1, 1}, Dim3{32, 1, 1},
                                   Args, S, &Err),
              GpuError::Success)
        << Err;
    Busy += S->tailSeconds();
  }
  double Makespan = Dev.simulatedSeconds();
  EXPECT_NEAR(Makespan, Single, 1e-12)
      << "independent streams must not serialize";
  EXPECT_NEAR(Busy, 4.0 * Single, 1e-12);
  EXPECT_GE(Busy / Makespan, 3.0)
      << "1 -> 4 streams must scale simulated throughput by >= 3x";
}

// -- Free diagnostics --------------------------------------------------------

TEST(StreamTest, BadFreesAreCountedNotIgnored) {
  uint64_t Unknown0 =
      metrics::processRegistry().counter("gpu.free_unknown").value();
  uint64_t Double0 =
      metrics::processRegistry().counter("gpu.free_double").value();

  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 20);
  DevicePtr P = 0;
  ASSERT_EQ(gpuMalloc(Dev, &P, 4096), GpuError::Success);
  EXPECT_EQ(gpuFree(Dev, P), GpuError::Success);
  // Double free: the block is already on the free list.
  EXPECT_EQ(gpuFree(Dev, P), GpuError::InvalidValue);
  EXPECT_EQ(Dev.doubleFrees(), 1u);
  // Unknown pointer: never returned by gpuMalloc.
  EXPECT_EQ(gpuFree(Dev, P + 8), GpuError::InvalidValue);
  EXPECT_EQ(Dev.unknownFrees(), 1u);

  EXPECT_EQ(metrics::processRegistry().counter("gpu.free_unknown").value(),
            Unknown0 + 1);
  EXPECT_EQ(metrics::processRegistry().counter("gpu.free_double").value(),
            Double0 + 1);
}

// -- DeviceManager pool construction ----------------------------------------

TEST(StreamTest, DeviceManagerCyclesArchsAndPreCreatesStreams) {
  DeviceManager::Config C;
  C.NumDevices = 3;
  C.StreamsPerDevice = 2;
  C.Archs = {GpuArch::AmdGcnSim, GpuArch::NvPtxSim};

  DeviceManager Mgr(C);
  ASSERT_EQ(Mgr.numDevices(), 3u);
  // Archs cycle across the pool; ordinals follow pool order.
  EXPECT_EQ(Mgr.device(0).target().Arch, GpuArch::AmdGcnSim);
  EXPECT_EQ(Mgr.device(1).target().Arch, GpuArch::NvPtxSim);
  EXPECT_EQ(Mgr.device(2).target().Arch, GpuArch::AmdGcnSim);
  for (unsigned D = 0; D != 3; ++D) {
    EXPECT_EQ(Mgr.device(D).ordinal(), D);
    EXPECT_EQ(Mgr.device(D).numStreams(), 2u);
  }
  EXPECT_DOUBLE_EQ(Mgr.totalSimulatedSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(Mgr.makespanSeconds(), 0.0);
}

// -- Per-stream trace lanes --------------------------------------------------

TEST(StreamTest, TraceLanesCarryDeviceAndStreamTid) {
  TempDir Tmp;
  std::string Path = Tmp.file("lanes.json");

  Device Dev(getTarget(GpuArch::AmdGcnSim), 1ull << 22);
  DevicePtr A = 0;
  ASSERT_EQ(gpuMalloc(Dev, &A, 1 << 16), GpuError::Success);
  Stream *S1 = nullptr;
  ASSERT_EQ(gpuStreamCreate(Dev, &S1), GpuError::Success);
  std::vector<uint8_t> H(1 << 16, 2);

  trace::start("");
  ASSERT_EQ(gpuMemcpyHtoD(Dev, A, H.data(), H.size()), GpuError::Success);
  ASSERT_EQ(gpuMemcpyHtoDAsync(Dev, A, H.data(), H.size(), S1),
            GpuError::Success);
  ASSERT_EQ(gpuMemsetAsync(Dev, A, 0, 1 << 16, S1), GpuError::Success);
  trace::stop();
  ASSERT_TRUE(trace::writeJson(Path));

  std::string Err;
  EXPECT_TRUE(trace::validateTraceFile(Path, {"memcpyHtoD", "memset"}, &Err))
      << Err;

  std::ifstream F(Path);
  std::string Json((std::istreambuf_iterator<char>(F)),
                   std::istreambuf_iterator<char>());
  // Default stream lane (device 0, stream 0) and the created stream's lane.
  std::string Lane0 = "\"tid\":" + std::to_string(trace::laneTid(0, 0));
  std::string Lane1 = "\"tid\":" + std::to_string(trace::laneTid(0, S1->id()));
  EXPECT_NE(Json.find(Lane0), std::string::npos) << Json;
  EXPECT_NE(Json.find(Lane1), std::string::npos) << Json;
}

// -- Multi-device JIT: compile once per arch, load everywhere ---------------

TEST(StreamTest, PerArchCompileOnceLoadEverywhere) {
  CompiledProgram Prog = compileFor(GpuArch::AmdGcnSim);
  JitConfig Base; // Sync, no tier: counters are exact
  const std::vector<std::vector<uint8_t>> Expected =
      baselineResults(Prog, Base);

  JitConfig JC = Base;
  JC.UsePersistentCache = false;
  DeviceManager::Config C;
  C.NumDevices = 4;
  C.MemoryBytesPerDevice = 1ull << 24;
  std::vector<const CompiledProgram *> Progs = {&Prog};
  PoolHarness H(Progs, C, JC);

  const std::vector<WorkItem> Items = makeWorkItems();
  for (const WorkItem &W : Items)
    for (unsigned D = 0; D != 4; ++D) {
      std::string Err;
      ASSERT_EQ(H.launch(D, W, nullptr, &Err), GpuError::Success)
          << "@" << W.Symbol << " dev " << D << ": " << Err;
    }
  H.Jit.drain();

  // 1-device vs 4-device runs are byte-identical on every device.
  for (unsigned D = 0; D != 4; ++D)
    for (unsigned I = 0; I != Items.size(); ++I)
      EXPECT_EQ(H.readOut(D, I), Expected[I])
          << "device " << D << " item " << I;

  JitRuntimeStats S = H.Jit.stats();
  // Same arch everywhere: one compile per specialization, reused by the
  // three other devices via the per-arch code cache.
  EXPECT_EQ(S.Compilations, uint64_t(Items.size()));
  EXPECT_EQ(S.PerArchCompileReuse, uint64_t(Items.size() * 3));
  EXPECT_EQ(S.CrossDeviceLoads, uint64_t(Items.size() * 3));
  EXPECT_GT(S.PerArchCompileReuse, 0u);
  EXPECT_EQ(S.Launches, uint64_t(Items.size() * 4));
  EXPECT_EQ(S.StreamLaunches, 0u);
}

TEST(StreamTest, HeterogeneousPoolCompilesPerArchAndAgrees) {
  CompiledProgram ProgA = compileFor(GpuArch::AmdGcnSim);
  CompiledProgram ProgN = compileFor(GpuArch::NvPtxSim);
  JitConfig Base;
  const std::vector<std::vector<uint8_t>> Expected =
      baselineResults(ProgA, Base);

  JitConfig JC = Base;
  JC.UsePersistentCache = false;
  DeviceManager::Config C;
  C.NumDevices = 2;
  C.Archs = {GpuArch::AmdGcnSim, GpuArch::NvPtxSim};
  C.MemoryBytesPerDevice = 1ull << 24;
  std::vector<const CompiledProgram *> Progs = {&ProgA, &ProgN};
  PoolHarness H(Progs, C, JC);

  const std::vector<WorkItem> Items = makeWorkItems();
  for (const WorkItem &W : Items)
    for (unsigned D = 0; D != 2; ++D) {
      std::string Err;
      ASSERT_EQ(H.launch(D, W, nullptr, &Err), GpuError::Success)
          << "@" << W.Symbol << " dev " << D << ": " << Err;
    }
  H.Jit.drain();

  // Differential: both architectures produce identical bytes.
  for (unsigned D = 0; D != 2; ++D)
    for (unsigned I = 0; I != Items.size(); ++I)
      EXPECT_EQ(H.readOut(D, I), Expected[I])
          << "device " << D << " item " << I;

  JitRuntimeStats S = H.Jit.stats();
  // Distinct archs cannot share objects: one compile per (spec, arch),
  // and no cross-device reuse.
  EXPECT_EQ(S.Compilations, uint64_t(Items.size() * 2));
  EXPECT_EQ(S.PerArchCompileReuse, 0u);
  EXPECT_EQ(S.CrossDeviceLoads, 0u);
}

// -- Launch storm: threads x streams x devices (TSan target) ----------------

TEST(StreamTest, MultiDeviceMultiStreamLaunchStorm) {
  CompiledProgram Prog = compileFor(GpuArch::AmdGcnSim);
  JitConfig EnvJC = JitConfig::fromEnvironment();
  const std::vector<std::vector<uint8_t>> Expected =
      baselineResults(Prog, EnvJC);

  // Honor the CI battery's PROTEUS_NUM_DEVICES / PROTEUS_DEFAULT_STREAMS,
  // bounded so the default run stays cheap; archs stay homogeneous so the
  // reuse counters have a guaranteed floor.
  DeviceManager::Config C = DeviceManager::configFromEnvironment();
  C.NumDevices = std::min(std::max(C.NumDevices, 2u), 4u);
  C.StreamsPerDevice = std::min(std::max(C.StreamsPerDevice, 2u), 8u);
  C.Archs.clear();
  C.MemoryBytesPerDevice = 1ull << 24;

  JitConfig JC = EnvJC;
  JC.UsePersistentCache = false;
  std::vector<const CompiledProgram *> Progs = {&Prog};
  PoolHarness H(Progs, C, JC);

  const std::vector<WorkItem> Items = makeWorkItems();
  const unsigned NumThreads = 8;
  const unsigned Repeats = 2;
  const unsigned Devs = H.Mgr.numDevices();
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::string> ThreadErrors(NumThreads);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (unsigned R = 0; R != Repeats; ++R)
        for (unsigned I = 0; I != Items.size(); ++I) {
          unsigned D = (I + T) % Devs;
          Stream *S =
              H.Mgr.device(D).stream((T + R) % C.StreamsPerDevice);
          std::string Err;
          if (H.launch(D, Items[I], S, &Err) != GpuError::Success) {
            ThreadErrors[T] = "@" + Items[I].Symbol + ": " + Err;
            return;
          }
        }
    });

  while (Ready.load() != NumThreads)
    std::this_thread::yield();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_TRUE(ThreadErrors[T].empty())
        << "thread " << T << " failed: " << ThreadErrors[T];

  H.Jit.drain();

  // A final synchronous sweep guarantees every (item, device) pair has a
  // launch-path load, pinning the reuse counters' floor even when the
  // storm ran entirely on generic fallbacks.
  for (const WorkItem &W : Items)
    for (unsigned D = 0; D != Devs; ++D) {
      std::string Err;
      ASSERT_EQ(H.launch(D, W, nullptr, &Err), GpuError::Success) << Err;
    }
  H.Jit.drain();

  for (unsigned D = 0; D != Devs; ++D)
    for (unsigned I = 0; I != Items.size(); ++I)
      EXPECT_EQ(H.readOut(D, I), Expected[I])
          << "device " << D << " item " << I;

  JitRuntimeStats S = H.Jit.stats();
  EXPECT_EQ(S.StreamLaunches,
            uint64_t(NumThreads) * Repeats * Items.size());
  EXPECT_EQ(S.Compilations, uint64_t(Items.size()))
      << "one compile per specialization across the whole pool";
  EXPECT_GE(S.PerArchCompileReuse, uint64_t(Items.size() * (Devs - 1)));
  EXPECT_GE(S.CrossDeviceLoads, uint64_t(Items.size() * (Devs - 1)));

  // The pool did real overlapping work: aggregate busy time exceeds the
  // pool makespan once more than one device is active.
  EXPECT_GT(H.Mgr.totalSimulatedSeconds(), H.Mgr.makespanSeconds());
}

} // namespace
