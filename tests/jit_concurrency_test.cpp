//===- jit_concurrency_test.cpp - async JIT pipeline battery ---------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Concurrency battery for the asynchronous JIT pipeline: many threads
// hammer one JitRuntime with a mix of kernels and specializations, in each
// AsyncMode, and the results must be bit-identical to a single-threaded
// synchronous baseline. The in-flight compilation table must deduplicate
// concurrent misses to exactly one compilation per distinct specialization
// key. Designed to run under -DPROTEUS_SANITIZE=thread (tools/ci_tsan.sh).
//
// gtest assertions are not thread-safe: worker threads only record results;
// all checking happens on the main thread after join.
//
// Configs are seeded from the environment so the CI battery can re-run the
// whole file with the kernel sanitizer and per-pass verification on the hot
// path (PROTEUS_ANALYZE=error PROTEUS_VERIFY_EACH=1): every kernel here is
// lint-clean, so any rejection under contention is a sanitizer race.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"
#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "bitcode/ModuleIndex.h"
#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr unsigned NumKernels = 5;
constexpr unsigned NumSpecs = 3;
constexpr unsigned NumThreads = 8;
constexpr unsigned Repeats = 3; // each thread launches every item this often
constexpr uint32_t N = 64;      // elements per buffer

struct WorkItem {
  std::string Symbol;
  double Sf;
  int32_t Si;
  unsigned OutIndex; // which output buffer this (kernel, spec) pair owns
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

/// One program holding NumKernels distinct random kernels.
std::unique_ptr<Module> buildProgram(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "conc_app");
  for (unsigned K = 0; K != NumKernels; ++K)
    buildRandomKernelInto(*M, /*Seed=*/1000 + 17 * K,
                          "rk" + std::to_string(K));
  return M;
}

/// Shared per-run state: device, runtime, program, buffers.
struct Harness {
  Device Dev;
  JitRuntime Jit;
  LoadedProgram LP;
  DevicePtr In = 0;
  std::vector<DevicePtr> Outs;

  Harness(const CompiledProgram &Prog, GpuArch Arch, const JitConfig &JC)
      : Dev(getTarget(Arch), 1ull << 24), Jit(Dev, Prog.ModuleId, JC),
        LP(Dev, Prog, &Jit) {
    EXPECT_TRUE(LP.ok()) << LP.error();
    EXPECT_EQ(gpuMalloc(Dev, &In, N * 8), GpuError::Success);
    std::vector<double> HIn(N);
    for (uint32_t I = 0; I != N; ++I)
      HIn[I] = 0.25 * I - 3.0;
    gpuMemcpyHtoD(Dev, In, HIn.data(), N * 8);
    Outs.resize(NumKernels * NumSpecs);
    for (DevicePtr &P : Outs)
      EXPECT_EQ(gpuMalloc(Dev, &P, N * 8), GpuError::Success);
  }

  GpuError launch(const WorkItem &W, std::string *Err) {
    std::vector<KernelArg> Args = {{In},
                                   {Outs[W.OutIndex]},
                                   {N},
                                   {sem::boxF64(W.Sf)},
                                   {static_cast<uint64_t>(
                                       static_cast<uint32_t>(W.Si))}};
    return LP.launch(W.Symbol, Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, Err);
  }

  std::vector<uint8_t> readOut(unsigned Index) {
    std::vector<uint8_t> Bytes(N * 8);
    gpuMemcpyDtoH(Dev, Bytes.data(), Outs[Index], N * 8);
    return Bytes;
  }
};

/// Single-threaded synchronous reference execution. Async mode is forced
/// to Sync regardless of the environment (the CI battery re-runs this file
/// with PROTEUS_ASYNC set) so the baseline stays a synchronous reference;
/// tiering may still be enabled, in which case the drain below lets every
/// background Tier-1 promotion land before the compile count is checked.
std::vector<std::vector<uint8_t>> baselineResults(const CompiledProgram &Prog,
                                                  GpuArch Arch) {
  JitConfig JC = JitConfig::fromEnvironment();
  JC.UsePersistentCache = false;
  JC.Async = JitConfig::AsyncMode::Sync;
  Harness H(Prog, Arch, JC);
  std::vector<std::vector<uint8_t>> Out;
  for (const WorkItem &W : makeWorkItems()) {
    std::string Err;
    EXPECT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  }
  H.Jit.drain();
  EXPECT_EQ(H.Jit.stats().Compilations, uint64_t(NumKernels * NumSpecs));
  for (unsigned I = 0; I != NumKernels * NumSpecs; ++I)
    Out.push_back(H.readOut(I));
  return Out;
}

/// Hammers one runtime from NumThreads threads; checks results, error-free
/// execution and exactly one compilation per distinct specialization key.
void runConcurrent(const CompiledProgram &Prog, GpuArch Arch,
                   JitConfig::AsyncMode Mode,
                   const std::vector<std::vector<uint8_t>> &Expected) {
  SCOPED_TRACE(std::string("mode=") + asyncModeName(Mode));
  JitConfig JC = JitConfig::fromEnvironment();
  JC.UsePersistentCache = false;
  JC.Async = Mode;
  JC.AsyncWorkers = 4;
  Harness H(Prog, Arch, JC);

  const std::vector<WorkItem> Items = makeWorkItems();
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::string> ThreadErrors(NumThreads);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      // Each thread walks the items from a different offset so distinct
      // specializations race with duplicate ones.
      for (unsigned R = 0; R != Repeats; ++R)
        for (unsigned I = 0; I != Items.size(); ++I) {
          const WorkItem &W = Items[(I + T * 7 + R) % Items.size()];
          std::string Err;
          if (H.launch(W, &Err) != GpuError::Success) {
            ThreadErrors[T] = "@" + W.Symbol + ": " + Err;
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

  H.Jit.drain(); // join background compiles before reading stats

  JitRuntimeStats S = H.Jit.stats();
  EXPECT_EQ(S.Compilations, uint64_t(NumKernels * NumSpecs))
      << "in-flight dedup must yield one compile per distinct key";
  EXPECT_EQ(S.Launches,
            uint64_t(NumThreads) * Repeats * Items.size());
  // Every specialized binary a cover (Fallback) or a Tier-0 baseline
  // (tiering on) served first arrives through one Final promotion.
  const bool Covered = Mode == JitConfig::AsyncMode::Fallback;
  EXPECT_EQ(S.Tier1Promotions,
            Covered || JC.Tier ? uint64_t(NumKernels * NumSpecs) : 0u);
  if (Covered)
    EXPECT_GT(S.FallbackLaunches, 0u);
  else
    EXPECT_EQ(S.FallbackLaunches, 0u);

  // Bit-identical to the single-threaded synchronous baseline — in
  // Fallback mode this also proves the generic binary computes the same
  // function as the specialized one.
  for (unsigned I = 0; I != Items.size(); ++I)
    EXPECT_EQ(H.readOut(I), Expected[I]) << "output " << I << " diverged";

  // After everything is compiled and loaded, launches take the fast path:
  // no new compiles, no fallbacks, no waits.
  uint64_t FallbacksBefore = S.FallbackLaunches;
  for (const WorkItem &W : Items) {
    std::string Err;
    EXPECT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  }
  JitRuntimeStats S2 = H.Jit.stats();
  EXPECT_EQ(S2.Compilations, uint64_t(NumKernels * NumSpecs));
  EXPECT_EQ(S2.FallbackLaunches, FallbacksBefore)
      << "steady state must use the specialized binaries";
}

TEST(JitConcurrencyTest, AllModesMatchSyncBaseline) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  std::vector<std::vector<uint8_t>> Expected =
      baselineResults(Prog, GpuArch::AmdGcnSim);
  ASSERT_EQ(Expected.size(), size_t(NumKernels * NumSpecs));

  for (JitConfig::AsyncMode Mode :
       {JitConfig::AsyncMode::Sync, JitConfig::AsyncMode::Fallback})
    runConcurrent(Prog, GpuArch::AmdGcnSim, Mode, Expected);
}

/// Compile workers materialize from one shared, read-only prototype. Four
/// threads each materialize, specialize (bound included, so loops unroll)
/// and optimize every work item, building and tearing down use lists that
/// outgrow their inline storage, and must print what a serial run prints.
/// Under TSan this is the race check for the prototype and the IR storage.
TEST(JitConcurrencyTest, ConcurrentMaterializeFromASharedPrototype) {
  Context Ctx;
  std::string Error;
  std::shared_ptr<const KernelModuleIndex> Index =
      KernelModuleIndex::create(writeBitcode(*buildProgram(Ctx)), Error);
  ASSERT_TRUE(Index) << Error;
  const std::vector<WorkItem> Items = makeWorkItems();
  auto compile = [&Index](const WorkItem &W) {
    Context C;
    std::unique_ptr<Module> M = Index->materialize(C, W.Symbol, nullptr);
    specializeArguments(*M->getFunction(W.Symbol),
                        {{2, N},
                         {3, sem::boxF64(W.Sf)},
                         {4, static_cast<uint32_t>(W.Si)}});
    runO3(*M);
    return printModule(*M);
  };
  std::vector<std::string> Expected;
  for (const WorkItem &W : Items)
    Expected.push_back(compile(W));
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned R = 0; R != Repeats; ++R)
        for (size_t I = 0; I != Items.size(); ++I) {
          size_t K = (I + T) % Items.size(); // staggered starts
          if (compile(Items[K]) != Expected[K])
            ++Mismatches;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

TEST(JitConcurrencyTest, FallbackModeOnNvPtxSim) {
  // The NVIDIA path reads bitcode back from device memory on the launch
  // thread while worker threads compile — exercise that flow concurrently
  // too.
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::NvPtxSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  std::vector<std::vector<uint8_t>> Expected =
      baselineResults(Prog, GpuArch::NvPtxSim);
  runConcurrent(Prog, GpuArch::NvPtxSim, JitConfig::AsyncMode::Fallback,
                Expected);
}

TEST(JitConcurrencyTest, FallbackHotSwapsToSpecializedBinary) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  JitConfig JC = JitConfig::fromEnvironment();
  JC.UsePersistentCache = false;
  JC.Async = JitConfig::AsyncMode::Fallback;
  JC.AsyncWorkers = 1;
  Harness H(Prog, GpuArch::AmdGcnSim, JC);

  WorkItem W{"rk0", 2.0, 4, 0};
  std::string Err;
  // Cold launch: served by the generic binary or (if the compile won the
  // race) the specialized one — correct either way, and never blocking on
  // the whole pipeline.
  ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  H.Jit.drain();
  std::vector<uint8_t> AfterCold = H.readOut(0);

  // Warm launch: the specialized binary must now serve, with no further
  // fallback launches and no recompilation.
  JitRuntimeStats S1 = H.Jit.stats();
  ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  JitRuntimeStats S2 = H.Jit.stats();
  EXPECT_EQ(S2.FallbackLaunches, S1.FallbackLaunches);
  EXPECT_EQ(S2.Compilations, S1.Compilations);
  EXPECT_EQ(S2.Compilations, 1u);
  EXPECT_EQ(H.readOut(0), AfterCold) << "hot swap changed results";
}

TEST(JitConcurrencyTest, PersistentCacheWritesAreConcurrencySafe) {
  // Launch threads and pool workers writing cache-jit-<hash>.o
  // concurrently into one directory must produce only valid entries
  // (atomic rename, no torn files) that a fresh runtime can reuse without
  // recompiling.
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  TempDir Tmp;
  JitConfig JC = JitConfig::fromEnvironment();
  JC.CacheDir = Tmp.Path;
  JC.Async = JitConfig::AsyncMode::Fallback;
  JC.AsyncWorkers = 4;
  {
    Harness H(Prog, GpuArch::AmdGcnSim, JC);
    const std::vector<WorkItem> Items = makeWorkItems();
    std::vector<std::string> ThreadErrors(NumThreads);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; I != Items.size(); ++I) {
          std::string Err;
          if (H.launch(Items[(I + T) % Items.size()], &Err) !=
              GpuError::Success) {
            ThreadErrors[T] = Err;
            return;
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
    for (const std::string &E : ThreadErrors)
      EXPECT_TRUE(E.empty()) << E;
    H.Jit.drain();
  }
  // No stale temp files may remain.
  for (const std::string &Name : fs::listFiles(Tmp.Path))
    EXPECT_EQ(Name.find(".tmp-"), std::string::npos) << Name;

  // Fresh runtime, warm disk: every entry must load (0 compilations).
  // The warm config is deliberately default (sync, untiered) so the reuse
  // check is deterministic — but the fleet routing must follow the
  // environment: when the battery points PROTEUS_CACHE_REMOTE at a cache
  // daemon, the storm above published into the daemon's store, and a warm
  // runtime that skipped the daemon would recompile everything.
  JitConfig Env = JitConfig::fromEnvironment();
  JitConfig Warm;
  Warm.CacheDir = Tmp.Path;
  Warm.CacheRemote = Env.CacheRemote;
  Warm.CacheSocket = Env.CacheSocket;
  Harness H2(Prog, GpuArch::AmdGcnSim, Warm);
  for (const WorkItem &W : makeWorkItems()) {
    std::string Err;
    EXPECT_EQ(H2.launch(W, &Err), GpuError::Success) << Err;
  }
  EXPECT_EQ(H2.Jit.stats().Compilations, 0u);
  EXPECT_EQ(H2.Jit.cache().stats().CorruptPersistentEntries, 0u);
}

/// fill(out, c) stores its jit-annotated c to out[threadIdx.x], so every
/// distinct c is a specialization of its own.
std::unique_ptr<Module> buildFillProgram(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "memo_app");
  IRBuilder B(Ctx);
  Function *F = M->createFunction("fill", Ctx.getVoidTy(),
                                  {Ctx.getPtrTy(), Ctx.getI32Ty()},
                                  {"out", "c"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{2}});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  B.createStore(F->getArg(1), B.createGep(Ctx.getI32Ty(), F->getArg(0),
                                          B.createThreadIdx(0)));
  B.createRet();
  return M;
}

TEST(JitConcurrencyTest, LockFreeHashMemoUnderAFourDevicePool) {
  // 4 threads x 4 devices launch a few hot specializations mixed with a
  // stream of fresh ones, more distinct keys in all than one kernel's memo
  // holds: the memo fills up, later keys recompute their hash, and racing
  // threads insert the same fresh key. Every output is checked, and every
  // launch is exactly one memo hit or one memo miss.
  constexpr unsigned Devices = 4, Threads = 4, Hot = 6;
  constexpr unsigned Fresh = JitRuntime::HashMemoCapacity + 16;
  constexpr unsigned PerThread = 3 * Fresh;
  constexpr uint32_t Lanes = 32;

  Context Ctx;
  std::unique_ptr<Module> M = buildFillProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  JitConfig JC = JitConfig::fromEnvironment();
  JC.UsePersistentCache = false;
  std::vector<std::unique_ptr<Device>> Devs;
  for (unsigned D = 0; D != Devices; ++D)
    Devs.push_back(std::make_unique<Device>(getAmdGcnSimTarget(), 1 << 20));
  JitRuntime Jit(*Devs[0], Prog.ModuleId, JC);
  for (unsigned D = 1; D != Devices; ++D)
    Jit.attachDevice(*Devs[D]);
  LoadedProgram LP(*Devs[0], Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();
  const KernelHandle Fill = Jit.kernelHandle("fill");
  ASSERT_TRUE(Fill);

  DevicePtr Out[Threads][Devices];
  for (unsigned T = 0; T != Threads; ++T)
    for (unsigned D = 0; D != Devices; ++D)
      ASSERT_EQ(gpuMalloc(*Devs[D], &Out[T][D], Lanes * 4), GpuError::Success);

  std::vector<std::string> ThreadErrors(Threads);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (unsigned I = 0; I != PerThread; ++I) {
        // Every third launch is a fresh key; over its run each thread
        // launches every fresh key once, in its own order.
        const uint32_t C = I % 3 == 0 ? 1000 + (I / 3 + T * 17) % Fresh
                                      : 7 + (I + T) % Hot;
        const unsigned D = (I + T) % Devices;
        const std::vector<KernelArg> Args = {{Out[T][D]}, {C}};
        std::string Err;
        // The handle and the symbol paths alternate.
        GpuError E =
            I % 2 ? Jit.launchKernelOn(D, Fill, Dim3{1, 1, 1},
                                       Dim3{Lanes, 1, 1}, Args, nullptr, &Err)
                  : Jit.launchKernelOn(D, "fill", Dim3{1, 1, 1},
                                       Dim3{Lanes, 1, 1}, Args, nullptr, &Err);
        if (E != GpuError::Success) {
          ThreadErrors[T] = "launch " + std::to_string(I) + ": " + Err;
          return;
        }
        bool Ok = true;
        Jit.withDeviceLocked(D, [&](Device &Dev) {
          const uint8_t *P = Dev.memory().data() + Out[T][D];
          for (uint32_t L = 0; L != Lanes; ++L) {
            uint32_t V;
            std::memcpy(&V, P + 4 * L, 4);
            Ok = Ok && V == C;
          }
        });
        if (!Ok) {
          ThreadErrors[T] = "launch " + std::to_string(I) + " of c=" +
                            std::to_string(C) + " wrote wrong output";
          return;
        }
      }
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_TRUE(ThreadErrors[T].empty())
        << "thread " << T << ": " << ThreadErrors[T];
  Jit.drain();

  JitRuntimeStats S = Jit.stats();
  EXPECT_EQ(S.Launches, uint64_t(Threads) * PerThread);
  EXPECT_EQ(S.HashMemoHits + S.HashMemoMisses, S.Launches);
  // Every key misses once; the memo is full, so some keys miss again.
  EXPECT_GT(S.HashMemoMisses, uint64_t(Hot + Fresh));
  EXPECT_GT(S.HashMemoHits, 0u);
  EXPECT_EQ(S.Compilations, uint64_t(Hot + Fresh))
      << "one compile per distinct specialization";
}

TEST(JitConcurrencyTest, ResetInMemoryStateEmptiesTheHashMemo) {
  // A fresh-process simulation pays for the specialization hash again.
  Context Ctx;
  std::unique_ptr<Module> M = buildFillProgram(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);
  JitConfig JC;
  JC.UsePersistentCache = false;
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();
  DevicePtr Out = 0;
  ASSERT_EQ(gpuMalloc(Dev, &Out, 32 * 4), GpuError::Success);
  const std::vector<KernelArg> Args = {{Out}, {uint32_t(5)}};
  for (unsigned I = 0; I != 4; ++I) {
    if (I == 2)
      Jit.resetInMemoryState();
    std::string Err;
    ASSERT_EQ(LP.launch("fill", Dim3{1, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
  }
  JitRuntimeStats S = Jit.stats();
  EXPECT_EQ(S.HashMemoMisses, 2u);
  EXPECT_EQ(S.HashMemoHits, 2u);
  EXPECT_EQ(S.Compilations, 2u);
}

TEST(JitConcurrencyDeathTest, RegisteringANewKernelAfterALaunchIsFatal) {
  // Launches resolve symbols without a lock, so the registry must not grow
  // once they have begun. Re-registering a known kernel (a program loaded
  // on a further device) stays allowed.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto RegisterLate = [] {
    Context Ctx;
    std::unique_ptr<Module> M = buildFillProgram(Ctx);
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    CompiledProgram Prog = aotCompile(*M, AO);
    JitConfig JC;
    JC.UsePersistentCache = false;
    Device Dev(getAmdGcnSimTarget(), 1 << 20), Dev2(getAmdGcnSimTarget(),
                                                    1 << 20);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    Jit.attachDevice(Dev2);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok())
      return;
    DevicePtr Out = 0;
    gpuMalloc(Dev, &Out, 32 * 4);
    if (LP.launch("fill", Dim3{1, 1, 1}, Dim3{32, 1, 1},
                  {{Out}, {uint32_t(5)}}) != GpuError::Success)
      return;
    LoadedProgram LP2(Dev2, Prog, &Jit);
    if (!LP2.ok())
      return;
    JitKernelInfo Info;
    Info.Symbol = "late";
    Jit.registerKernel(std::move(Info));
  };
  EXPECT_DEATH(RegisterLate(),
               "kernel @late registered after the first launch");
}

} // namespace
