//===- capture_pressure_test.cpp - capture ring under pressure ------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The capture ring's load-shedding contract:
//
//  * a full ring sheds captures without blocking or failing the launch —
//    drops are counted in the runtime's metrics registry and partially
//    built artifacts are never persisted;
//  * once the writer resumes, every surviving record lands on disk as a
//    complete, parseable artifact that replays byte-identical;
//  * a multithreaded launch storm with capture enabled is data-race free
//    (this binary runs under TSan in tools/ci_tsan.sh) and accounts every
//    launch as exactly one record or one drop.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"

#include "capture/Artifact.h"
#include "capture/Capture.h"
#include "codegen/Target.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "jit/Replay.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr uint32_t N = 32;

uint64_t counterValue(const metrics::Registry &R, const std::string &Name) {
  for (const auto &[K, V] : R.counterValues())
    if (K == Name)
      return V;
  return 0;
}

/// One capture-enabled runtime around the seed-3 random kernel, ready to
/// launch repeatedly. Defaults to capture-every-launch (dedup off) so the
/// pressure tests can fill the ring with identical launches; the dedup
/// test opts back in.
struct CaptureRig {
  explicit CaptureRig(unsigned RingCapacity, bool Dedup = false)
      : Dir(fs::makeTempDirectory("proteus-capture-pressure")),
        Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22) {
    Context Ctx;
    Module M(Ctx, "pressure");
    buildRandomKernelInto(M, 3);
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    Prog = aotCompile(M, AO);

    JitConfig JC;
    JC.UsePersistentCache = false;
    JC.Capture = true;
    JC.CaptureDir = Dir;
    JC.CaptureRing = RingCapacity;
    JC.CaptureDedup = Dedup;
    Jit = std::make_unique<JitRuntime>(Dev, Prog.ModuleId, JC);
    LP = std::make_unique<LoadedProgram>(Dev, Prog, Jit.get());

    gpuMalloc(Dev, &In, N * sizeof(double));
    gpuMalloc(Dev, &Out, N * sizeof(double));
    std::vector<double> Init(N, 1.5);
    gpuMemcpyHtoD(Dev, In, Init.data(), N * sizeof(double));
  }

  ~CaptureRig() {
    LP.reset();
    Jit.reset(); // persists any queued captures
    fs::removeTree(Dir);
  }

  GpuError launch(std::string *Error = nullptr, uint64_t Si = 6) {
    std::vector<KernelArg> Args = {
        {In}, {Out}, {N}, {sem::boxF64(2.25)}, {Si}};
    return LP->launch("rk", Dim3{1, 1, 1}, Dim3{N, 1, 1}, Args, Error);
  }

  uint64_t counter(const std::string &Name) const {
    return counterValue(Jit->metricsRegistry(), Name);
  }

  std::string Dir;
  Device Dev;
  CompiledProgram Prog;
  std::unique_ptr<JitRuntime> Jit;
  std::unique_ptr<LoadedProgram> LP;
  DevicePtr In = 0, Out = 0;
};

TEST(CapturePressureTest, FullRingShedsWithoutBlockingOrCorrupting) {
  constexpr unsigned Ring = 2;
  constexpr unsigned Launches = 20;
  CaptureRig Rig(Ring);
  capture::CaptureSession *S = Rig.Jit->captureSession();
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(S->ok());
  EXPECT_EQ(S->ringCapacity(), Ring);

  // Freeze the writer: the ring fills after two captures and every further
  // launch must shed — and still succeed, immediately.
  S->pauseWriterForTest(true);
  for (unsigned I = 0; I != Launches; ++I) {
    std::string Error;
    ASSERT_EQ(Rig.launch(&Error), GpuError::Success) << Error;
  }

  EXPECT_EQ(Rig.counter("capture.records"), Ring);
  EXPECT_EQ(Rig.counter("capture.drops"), Launches - Ring);
  // Nothing persisted while the writer is frozen — partial artifacts are
  // never visible, not even transiently.
  EXPECT_TRUE(fs::listFiles(Rig.Dir).empty());
  EXPECT_EQ(Rig.counter("capture.artifacts"), 0u);

  // Resume and drain: exactly the ring's worth of complete artifacts.
  S->pauseWriterForTest(false);
  S->flush();
  EXPECT_EQ(Rig.counter("capture.artifacts"), Ring);

  std::vector<std::string> Files = fs::listFiles(Rig.Dir);
  ASSERT_EQ(Files.size(), Ring);
  for (const std::string &Name : Files) {
    std::string Error;
    auto A = capture::readArtifactFile(Rig.Dir + "/" + Name, &Error);
    ASSERT_TRUE(A) << Name << ": " << Error;
    EXPECT_EQ(A->KernelSymbol, "rk");

    ReplayOptions Opts;
    Opts.Jit.UsePersistentCache = false;
    ReplayResult R = replayArtifact(*A, Opts);
    EXPECT_TRUE(R.passed())
        << Name << ": " << R.Error << R.FirstMismatch;
  }
}

TEST(CapturePressureTest, LaunchStormAccountsEveryLaunch) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 24;
  CaptureRig Rig(/*RingCapacity=*/16);

  // Prime the specialization once so the storm exercises the capture path
  // on the loaded-kernel fast path, all threads at once.
  ASSERT_EQ(Rig.launch(), GpuError::Success);

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&Rig, &Failures] {
      for (unsigned I = 0; I != PerThread; ++I)
        if (Rig.launch() != GpuError::Success)
          Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);

  Rig.Jit->drain(); // settles the writer; flushes every queued capture

  // Every capture-eligible launch is exactly one record or one drop; every
  // record became exactly one complete artifact.
  uint64_t Records = Rig.counter("capture.records");
  uint64_t Drops = Rig.counter("capture.drops");
  EXPECT_EQ(Records + Drops, uint64_t(Threads) * PerThread + 1);
  EXPECT_EQ(Rig.counter("capture.artifacts"), Records);
  EXPECT_EQ(Rig.counter("capture.write_failures"), 0u);

  std::vector<std::string> Files = fs::listFiles(Rig.Dir);
  EXPECT_EQ(Files.size(), Records);
  for (const std::string &Name : Files) {
    std::string Error;
    auto A = capture::readArtifactFile(Rig.Dir + "/" + Name, &Error);
    ASSERT_TRUE(A) << Name << ": " << Error;
    EXPECT_EQ(A->Arch, GpuArch::AmdGcnSim);
    EXPECT_FALSE(A->Bitcode.empty());
  }
}

TEST(CapturePressureTest, DedupRecordsEachLaunchShapeOnce) {
  // Default capture mode: a steady-state loop re-launching the same shape
  // records it exactly once; every repeat is a cheap dedup skip, never a
  // drop. A changed annotated argument is a new shape and is captured.
  CaptureRig Rig(/*RingCapacity=*/16, /*Dedup=*/true);
  for (unsigned I = 0; I != 10; ++I)
    ASSERT_EQ(Rig.launch(), GpuError::Success);
  Rig.Jit->drain();
  EXPECT_EQ(Rig.counter("capture.records"), 1u);
  EXPECT_EQ(Rig.counter("capture.dedup"), 9u);
  EXPECT_EQ(Rig.counter("capture.drops"), 0u);
  EXPECT_EQ(Rig.counter("capture.artifacts"), 1u);

  for (unsigned I = 0; I != 5; ++I)
    ASSERT_EQ(Rig.launch(nullptr, /*Si=*/7), GpuError::Success);
  Rig.Jit->drain();
  EXPECT_EQ(Rig.counter("capture.records"), 2u);
  EXPECT_EQ(Rig.counter("capture.dedup"), 13u);
  EXPECT_EQ(Rig.counter("capture.artifacts"), 2u);

  // Both recorded shapes replay byte-identical.
  std::vector<std::string> Files = fs::listFiles(Rig.Dir);
  ASSERT_EQ(Files.size(), 2u);
  for (const std::string &Name : Files) {
    std::string Error;
    auto A = capture::readArtifactFile(Rig.Dir + "/" + Name, &Error);
    ASSERT_TRUE(A) << Name << ": " << Error;
    ReplayOptions Opts;
    Opts.Jit.UsePersistentCache = false;
    ReplayResult R = replayArtifact(*A, Opts);
    EXPECT_TRUE(R.passed()) << Name << ": " << R.Error << R.FirstMismatch;
  }
}

TEST(CapturePressureTest, UnwritableDirectoryShedsEverything) {
  // A path under a regular file can never be created; the session must
  // stay alive, report !ok(), and shed every capture without failing any
  // launch.
  std::string Tmp = fs::makeTempDirectory("proteus-capture-baddir");
  std::string FilePath = Tmp + "/occupied";
  ASSERT_TRUE(fs::writeFile(FilePath, {1}));

  Context Ctx;
  Module M(Ctx, "baddir");
  buildRandomKernelInto(M, 5);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Capture = true;
  JC.CaptureDir = FilePath + "/nested";
  Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();
  ASSERT_NE(Jit.captureSession(), nullptr);
  EXPECT_FALSE(Jit.captureSession()->ok());

  DevicePtr In = 0, Out = 0;
  gpuMalloc(Dev, &In, N * sizeof(double));
  gpuMalloc(Dev, &Out, N * sizeof(double));
  std::vector<KernelArg> Args = {
      {In}, {Out}, {N}, {sem::boxF64(1.0)}, {uint64_t(2)}};
  std::string Error;
  EXPECT_EQ(LP.launch("rk", Dim3{1, 1, 1}, Dim3{N, 1, 1}, Args, &Error),
            GpuError::Success)
      << Error;
  Jit.drain();
  EXPECT_EQ(counterValue(Jit.metricsRegistry(), "capture.records"), 0u);
  EXPECT_GE(counterValue(Jit.metricsRegistry(), "capture.drops"), 1u);
  fs::removeTree(Tmp);
}

} // namespace
