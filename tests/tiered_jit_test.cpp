//===- tiered_jit_test.cpp - tiered JIT differential battery ----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Differential battery for the tiered JIT (PROTEUS_TIER=on):
//
//  * the Tier-0 pipeline (fast O3 preset + single-pass register allocation)
//    produces bit-identical results to the full Tier-1 pipeline over the
//    random-kernel corpus, on both simulated targets;
//  * a cold launch in tiered Sync mode is served by Tier-0 and later
//    promoted in place by the background Tier-1 compile, with outputs
//    identical before and after promotion;
//  * a persisted Tier-0 entry (a run that exited before promoting) is
//    served immediately on a fresh runtime and promoted to Final on disk;
//    with tiering off it is treated as a miss and fully recompiled;
//  * a stale pipeline fingerprint forces recompilation;
//  * a launch storm racing a hot-swap promotion (Fallback + tier on) stays
//    correct and converges to the promoted binary, which the generic
//    cover promotes to straight, with no Tier-0 compile;
//  * however launches on a multi-device pool race the promotions, every
//    device ends on the Final binary, in Sync and Fallback, with the memory
//    cache on and off. Designed to also run under
//    -DPROTEUS_SANITIZE=thread (tools/ci_tsan.sh).
//
// gtest assertions are not thread-safe: storm threads only record results;
// all checking happens on the main thread after join.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"
#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "codegen/Compiler.h"
#include "codegen/ISel.h"
#include "gpu/Runtime.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

constexpr uint32_t N = 32; // elements / threads per kernel

std::vector<uint8_t> freshMemory(uint64_t Seed) {
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  Rng R(Seed ^ 0x7157);
  for (uint32_t I = 0; I != N; ++I)
    In[I] = R.unit() * 8.0 - 4.0;
  return Mem;
}

std::vector<uint64_t> argsFor(uint64_t Seed) {
  Rng R(Seed ^ 0x71e5);
  return {0, N * sizeof(double), N, sem::boxF64(R.unit() * 3.0),
          static_cast<uint64_t>(R.below(1000))};
}

/// Specializes, optimizes and compiles one random kernel with either the
/// Tier-0 flavor (fast preset, fast register allocation) or the full
/// pipeline, then runs it on a fresh device and returns the memory image.
std::vector<uint8_t> compileAndRun(uint64_t Seed, GpuArch Arch,
                                   unsigned Budget, bool Tier0Flavor) {
  std::vector<uint64_t> Args = argsFor(Seed);
  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  Function *F = M->getFunction("rk");

  specializeArguments(*F, {{3, Args[3]}, {4, Args[4]}});
  specializeLaunchBounds(*F, N);
  O3Options Opts;
  Opts.VerifyEach = true;
  if (Tier0Flavor)
    Opts.Preset = O3Preset::Fast;
  runO3(*M, Opts);
  expectValid(*M);

  mcode::MachineFunction MF = selectInstructions(*F);
  RegAllocOptions RA;
  RA.Fast = Tier0Flavor;
  allocateRegisters(MF, Budget, RA);
  std::vector<uint8_t> Obj = writeObject(MF, Arch);

  Device Dev(getTarget(Arch), 1 << 20);
  std::vector<uint8_t> Init = freshMemory(Seed);
  std::copy(Init.begin(), Init.end(), Dev.memory().begin());
  LoadedKernel *K = nullptr;
  std::string Err;
  EXPECT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  std::vector<KernelArg> KArgs;
  for (uint64_t A : Args)
    KArgs.push_back(KernelArg{A});
  EXPECT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{N, 1, 1}, KArgs,
                            &Err),
            GpuError::Success)
      << Err << " (seed " << Seed << ")";
  return std::vector<uint8_t>(Dev.memory().begin(),
                              Dev.memory().begin() +
                                  static_cast<long>(Init.size()));
}

class TieredPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TieredPipelineTest, FastPresetMatchesFullPipeline) {
  uint64_t Seed = GetParam();
  // Interpreter reference on the unoptimized kernel.
  std::vector<uint64_t> Args = argsFor(Seed);
  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  std::vector<uint8_t> Ref = freshMemory(Seed);
  interpretLaunch(*M->getFunction("rk"), Args, Ref, 1, N);

  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    // Budget 9 forces spilling through the fast allocator's conservative
    // whole-range intervals; 64 is the comfortable case.
    for (unsigned Budget : {9u, 64u}) {
      std::vector<uint8_t> Full = compileAndRun(Seed, Arch, Budget, false);
      std::vector<uint8_t> Fast = compileAndRun(Seed, Arch, Budget, true);
      EXPECT_EQ(Full, Ref) << "full pipeline diverged, seed " << Seed
                           << " arch " << gpuArchName(Arch) << " budget "
                           << Budget;
      EXPECT_EQ(Fast, Ref) << "Tier-0 pipeline diverged, seed " << Seed
                           << " arch " << gpuArchName(Arch) << " budget "
                           << Budget;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredPipelineTest,
                         ::testing::Range<uint64_t>(1, 25));

// ---------------------------------------------------------------------------
// Runtime-level battery: full JIT runtime with PROTEUS_TIER semantics.
// ---------------------------------------------------------------------------

constexpr unsigned NumKernels = 3;
constexpr unsigned NumSpecs = 2;
constexpr uint32_t BufN = 64;

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
      Items.push_back(WorkItem{"rk" + std::to_string(K), 0.75 + 0.5 * S,
                               static_cast<int32_t>(2 + S),
                               K * NumSpecs + S});
  return Items;
}

std::unique_ptr<Module> buildProgram(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "tier_app");
  for (unsigned K = 0; K != NumKernels; ++K)
    buildRandomKernelInto(*M, /*Seed=*/4200 + 31 * K,
                          "rk" + std::to_string(K));
  return M;
}

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
    EXPECT_EQ(gpuMalloc(Dev, &In, BufN * 8), GpuError::Success);
    std::vector<double> HIn(BufN);
    for (uint32_t I = 0; I != BufN; ++I)
      HIn[I] = 0.125 * I - 2.0;
    gpuMemcpyHtoD(Dev, In, HIn.data(), BufN * 8);
    Outs.resize(NumKernels * NumSpecs);
    for (DevicePtr &P : Outs)
      EXPECT_EQ(gpuMalloc(Dev, &P, BufN * 8), GpuError::Success);
  }

  GpuError launch(const WorkItem &W, std::string *Err) {
    std::vector<KernelArg> Args = {{In},
                                   {Outs[W.OutIndex]},
                                   {BufN},
                                   {sem::boxF64(W.Sf)},
                                   {static_cast<uint64_t>(
                                       static_cast<uint32_t>(W.Si))}};
    return LP.launch(W.Symbol, Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, Err);
  }

  std::vector<uint8_t> readOut(unsigned Index) {
    std::vector<uint8_t> Bytes(BufN * 8);
    // Device access is serialized under the runtime's per-device lock,
    // which background promotions may hold for symbol lookups.
    Jit.withDeviceLocked(0, [&](Device &D) {
      gpuMemcpyDtoH(D, Bytes.data(), Outs[Index], BufN * 8);
    });
    return Bytes;
  }
};

std::vector<std::vector<uint8_t>> referenceResults(const CompiledProgram &P,
                                                   GpuArch Arch) {
  JitConfig JC;
  JC.UsePersistentCache = false;
  Harness H(P, Arch, JC);
  std::vector<std::vector<uint8_t>> Out;
  for (const WorkItem &W : makeWorkItems()) {
    std::string Err;
    EXPECT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  }
  for (unsigned I = 0; I != NumKernels * NumSpecs; ++I)
    Out.push_back(H.readOut(I));
  return Out;
}

CompiledProgram compileProgram(Module &M, GpuArch Arch) {
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  return aotCompile(M, AO);
}

TEST(TieredJitTest, SyncColdLaunchServesTier0ThenPromotes) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  std::vector<std::vector<uint8_t>> Expected =
      referenceResults(Prog, GpuArch::AmdGcnSim);

  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Tier = true;
  Harness H(Prog, GpuArch::AmdGcnSim, JC);

  const std::vector<WorkItem> Items = makeWorkItems();
  // Cold pass: every first launch compiles Tier-0 inline; output read
  // right after must already match the full-pipeline reference.
  for (unsigned I = 0; I != Items.size(); ++I) {
    std::string Err;
    ASSERT_EQ(H.launch(Items[I], &Err), GpuError::Success) << Err;
    EXPECT_EQ(H.readOut(Items[I].OutIndex), Expected[I])
        << "cold (Tier-0 era) output " << I << " diverged";
  }
  JitRuntimeStats Cold = H.Jit.stats();
  EXPECT_EQ(Cold.Tier0Compiles, uint64_t(Items.size()));
  EXPECT_EQ(Cold.FallbackLaunches, 0u) << "Sync launches are never covered";
  EXPECT_GT(Cold.LaunchBlockedSeconds, 0.0);

  // Promotion: every specialization gets exactly one background Tier-1
  // compile that hot-swaps the loaded kernel and leaves outputs unchanged.
  H.Jit.drain();
  JitRuntimeStats Promoted = H.Jit.stats();
  EXPECT_EQ(Promoted.Compilations, uint64_t(Items.size()));
  EXPECT_EQ(Promoted.Tier1Promotions, uint64_t(Items.size()));
  for (unsigned I = 0; I != Items.size(); ++I) {
    std::string Err;
    ASSERT_EQ(H.launch(Items[I], &Err), GpuError::Success) << Err;
    EXPECT_EQ(H.readOut(Items[I].OutIndex), Expected[I])
        << "promoted output " << I << " diverged";
  }
  // Steady state: no further compiles of either tier.
  JitRuntimeStats Steady = H.Jit.stats();
  EXPECT_EQ(Steady.Tier0Compiles, Promoted.Tier0Compiles);
  EXPECT_EQ(Steady.Compilations, Promoted.Compilations);
}

TEST(TieredJitTest, FeykacTierOnMatchesTierOffOnBothArches) {
  // FEY-KAC inlines a callee whose blocks land after their users in
  // layout. The Tier-0 preset has no SimplifyCFG to reorder them, so ISel
  // meets a use before its def and must still lower it.
  std::unique_ptr<hecbench::Benchmark> B = hecbench::makeFeykacBenchmark();
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    hecbench::RunConfig C;
    C.Arch = Arch;
    C.Mode = hecbench::ExecMode::Proteus;
    C.Jit.UsePersistentCache = false;
    hecbench::RunResult Off = hecbench::runBenchmark(*B, C);
    ASSERT_TRUE(Off.Ok) << gpuArchName(Arch) << ": " << Off.Error;
    C.Jit.Tier = true;
    hecbench::RunResult On = hecbench::runBenchmark(*B, C);
    ASSERT_TRUE(On.Ok) << gpuArchName(Arch) << ": " << On.Error;
    EXPECT_GT(On.Jit.Tier0Compiles, 0u);
    EXPECT_EQ(Off.Jit.Tier0Compiles, 0u);
    EXPECT_FALSE(On.Outputs.empty());
    EXPECT_TRUE(On.Outputs == Off.Outputs)
        << gpuArchName(Arch) << ": tier-on output differs from tier-off";
  }
}

TEST(TieredJitTest, PersistedTier0IsServedAndPromotedInPlace) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  const WorkItem W = makeWorkItems()[0];

  // Reconstruct the specialization key exactly as buildKey does, to place
  // an entry where the runtime will look (also cross-checks the key
  // derivation itself below).
  SpecializationKey Key;
  Key.ModuleId = Prog.ModuleId;
  Key.KernelSymbol = W.Symbol;
  Key.Arch = GpuArch::AmdGcnSim;
  Key.FoldedArgs = {{3, sem::boxF64(W.Sf)},
                    {4, static_cast<uint64_t>(static_cast<uint32_t>(W.Si))}};
  Key.LaunchBoundsThreads = 32;
  const uint64_t Hash = computeSpecializationHash(Key);

  // Obtain a real (loadable) object for this specialization and keep the
  // reference output.
  std::vector<uint8_t> Object;
  std::vector<uint8_t> Expected;
  {
    JitConfig JC;
    JC.UsePersistentCache = false;
    Harness H(Prog, GpuArch::AmdGcnSim, JC);
    std::string Err;
    ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
    Expected = H.readOut(W.OutIndex);
    auto Hit = H.Jit.cache().lookup(Hash);
    ASSERT_TRUE(Hit.has_value())
        << "reconstructed key does not match the runtime's";
    Object = *Hit;
  }

  // Simulate a run that persisted Tier-0 and crashed before promoting.
  TempDir Tmp;
  {
    CodeCache Seed(false, true, Tmp.Path);
    Seed.insert(Hash, Object, CodeTier::Tier0,
                jitPipelineFingerprint(CodeTier::Tier0));
  }

  // Fresh tiered runtime: the Tier-0 entry is served without compiling
  // anything on the launch path, then promoted to Final in place.
  {
    JitConfig JC;
    JC.UseMemoryCache = true;
    JC.CacheDir = Tmp.Path;
    JC.Tier = true;
    Harness H(Prog, GpuArch::AmdGcnSim, JC);
    std::string Err;
    ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
    EXPECT_EQ(H.readOut(W.OutIndex), Expected);
    EXPECT_EQ(H.Jit.stats().Tier0Compiles, 0u)
        << "persisted Tier-0 must be served, not recompiled";
    H.Jit.drain();
    JitRuntimeStats S = H.Jit.stats();
    EXPECT_EQ(S.Compilations, 1u);
    EXPECT_EQ(S.Tier1Promotions, 1u);
    ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
    EXPECT_EQ(H.readOut(W.OutIndex), Expected)
        << "promotion changed results";
  }

  // The on-disk entry is now Final with the Tier-1 fingerprint.
  CodeCache Check(false, true, Tmp.Path);
  auto Entry = Check.lookupEntry(Hash);
  ASSERT_TRUE(Entry.has_value());
  EXPECT_EQ(Entry->Tier, CodeTier::Final);
  EXPECT_EQ(Entry->PipelineFingerprint,
            jitPipelineFingerprint(CodeTier::Final));
}

TEST(TieredJitTest, TierOffTreatsPersistedTier0AsMiss) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  const WorkItem W = makeWorkItems()[0];

  SpecializationKey Key;
  Key.ModuleId = Prog.ModuleId;
  Key.KernelSymbol = W.Symbol;
  Key.Arch = GpuArch::AmdGcnSim;
  Key.FoldedArgs = {{3, sem::boxF64(W.Sf)},
                    {4, static_cast<uint64_t>(static_cast<uint32_t>(W.Si))}};
  Key.LaunchBoundsThreads = 32;
  const uint64_t Hash = computeSpecializationHash(Key);

  std::vector<uint8_t> Object;
  {
    JitConfig JC;
    JC.UsePersistentCache = false;
    Harness H(Prog, GpuArch::AmdGcnSim, JC);
    std::string Err;
    ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
    Object = *H.Jit.cache().lookup(Hash);
  }

  TempDir Tmp;
  {
    CodeCache Seed(false, true, Tmp.Path);
    Seed.insert(Hash, Object, CodeTier::Tier0,
                jitPipelineFingerprint(CodeTier::Tier0));
  }

  // Tiering off: a Tier-0 baseline is not acceptable as a final artifact —
  // the launch recompiles the full pipeline and overwrites the entry.
  JitConfig JC;
  JC.CacheDir = Tmp.Path;
  Harness H(Prog, GpuArch::AmdGcnSim, JC);
  std::string Err;
  ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  EXPECT_EQ(H.Jit.stats().Compilations, 1u);
  CodeCache Check(false, true, Tmp.Path);
  auto Entry = Check.lookupEntry(Hash);
  ASSERT_TRUE(Entry.has_value());
  EXPECT_EQ(Entry->Tier, CodeTier::Final);
}

TEST(TieredJitTest, StalePipelineFingerprintForcesRecompile) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  const WorkItem W = makeWorkItems()[0];

  SpecializationKey Key;
  Key.ModuleId = Prog.ModuleId;
  Key.KernelSymbol = W.Symbol;
  Key.Arch = GpuArch::AmdGcnSim;
  Key.FoldedArgs = {{3, sem::boxF64(W.Sf)},
                    {4, static_cast<uint64_t>(static_cast<uint32_t>(W.Si))}};
  Key.LaunchBoundsThreads = 32;
  const uint64_t Hash = computeSpecializationHash(Key);

  TempDir Tmp;
  {
    // A Final-tagged entry from a hypothetical older pipeline: wrong
    // fingerprint, garbage payload — it must never be served.
    CodeCache Seed(false, true, Tmp.Path);
    Seed.insert(Hash, std::vector<uint8_t>(64, 0xEE), CodeTier::Final,
                /*PipelineFingerprint=*/0xDEAD);
  }

  JitConfig JC;
  JC.CacheDir = Tmp.Path;
  Harness H(Prog, GpuArch::AmdGcnSim, JC);
  std::string Err;
  ASSERT_EQ(H.launch(W, &Err), GpuError::Success) << Err;
  EXPECT_EQ(H.Jit.stats().Compilations, 1u)
      << "stale-fingerprint entry must be recompiled, not served";
}

TEST(TieredJitTest, HotSwapLaunchStormDuringPromotion) {
  Context Ctx;
  std::unique_ptr<Module> M = buildProgram(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  std::vector<std::vector<uint8_t>> Expected =
      referenceResults(Prog, GpuArch::AmdGcnSim);

  // Fallback + tiering: launches race the generic cover, the pooled Final
  // promotion and its hot-swap all at once. A cover skips Tier-0.
  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Tier = true;
  JC.Async = JitConfig::AsyncMode::Fallback;
  JC.AsyncWorkers = 4;
  Harness H(Prog, GpuArch::AmdGcnSim, JC);

  constexpr unsigned NumThreads = 8;
  constexpr unsigned Repeats = 6;
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
      for (unsigned R = 0; R != Repeats; ++R)
        for (unsigned I = 0; I != Items.size(); ++I) {
          const WorkItem &W = Items[(I + T * 5 + R) % Items.size()];
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

  H.Jit.drain();
  JitRuntimeStats S = H.Jit.stats();
  EXPECT_EQ(S.Tier0Compiles, 0u) << "a covered launch promotes to Final";
  EXPECT_EQ(S.Compilations, uint64_t(Items.size()))
      << "one Tier-1 promotion compile per distinct specialization";
  EXPECT_EQ(S.Tier1Promotions, uint64_t(Items.size()));

  // Post-promotion launches must produce the reference results and take
  // the fast path (no new fallbacks, no new compiles).
  for (unsigned I = 0; I != Items.size(); ++I) {
    std::string Err;
    ASSERT_EQ(H.launch(Items[I], &Err), GpuError::Success) << Err;
    EXPECT_EQ(H.readOut(Items[I].OutIndex), Expected[I])
        << "output " << I << " diverged after the storm";
  }
  JitRuntimeStats S2 = H.Jit.stats();
  EXPECT_EQ(S2.FallbackLaunches, S.FallbackLaunches);
  EXPECT_EQ(S2.Compilations, S.Compilations);
  EXPECT_EQ(S2.Tier0Compiles, S.Tier0Compiles);
}

/// dup(out: ptr, n: i32, k: i32), k annotated: a loop whose body computes
/// one subexpression twice. The Tier-0 preset runs no CSE, so a Tier-0 and
/// a Final binary execute different instruction counts, which tells the
/// rung a device runs from its last launch's counters.
std::unique_ptr<Module> buildDupLoopKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "dup_app");
  IRBuilder B(Ctx);
  Type *I32 = Ctx.getI32Ty();
  Function *F = M->createFunction("dup", Ctx.getVoidTy(),
                                  {Ctx.getPtrTy(), I32, I32},
                                  {"out", "n", "k"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{3}});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Loop = F->createBlock("loop", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Tid = B.createGlobalThreadIdX();
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  PhiInst *I = B.createPhi(I32, "i");
  PhiInst *Acc = B.createPhi(I32, "acc");
  Value *A = B.createAdd(B.createMul(I, B.getInt32(3)), Tid);
  Value *Dup = B.createAdd(B.createMul(I, B.getInt32(3)), Tid);
  Value *AccNext = B.createAdd(Acc, B.createMul(A, Dup));
  Value *INext = B.createAdd(I, B.getInt32(1));
  B.createCondBr(B.createICmp(ICmpPred::SLT, INext, F->getArg(1)), Loop,
                 Exit);
  I->addIncoming(B.getInt32(0), Entry);
  I->addIncoming(INext, Loop);
  Acc->addIncoming(B.getInt32(0), Entry);
  Acc->addIncoming(AccNext, Loop);
  B.setInsertPoint(Exit);
  B.createStore(B.createAdd(AccNext, F->getArg(2)),
                B.createGep(I32, F->getArg(0), Tid));
  B.createRet();
  return M;
}

/// One runtime over \p NumDevices amdgcn-sim devices running dup.
struct DupPool {
  static constexpr uint32_t Trips = 16;
  std::vector<std::unique_ptr<Device>> Devs;
  std::unique_ptr<JitRuntime> Jit;
  std::unique_ptr<LoadedProgram> LP;
  std::vector<DevicePtr> Out;

  DupPool(const CompiledProgram &Prog, const JitConfig &JC,
          unsigned NumDevices) {
    for (unsigned D = 0; D != NumDevices; ++D)
      Devs.push_back(std::make_unique<Device>(getAmdGcnSimTarget(), 1 << 20));
    Jit = std::make_unique<JitRuntime>(*Devs[0], Prog.ModuleId, JC);
    LP = std::make_unique<LoadedProgram>(*Devs[0], Prog, Jit.get());
    EXPECT_TRUE(LP->ok()) << LP->error();
    for (unsigned D = 1; D != NumDevices; ++D)
      Jit->attachDevice(*Devs[D]);
    Out.resize(NumDevices);
    for (unsigned D = 0; D != NumDevices; ++D)
      EXPECT_EQ(gpuMalloc(*Devs[D], &Out[D], 32 * 4), GpuError::Success);
  }

  GpuError launch(unsigned D, uint32_t K, std::string *Err) {
    return Jit->launchKernelOn(D, "dup", Dim3{1, 1, 1}, Dim3{32, 1, 1},
                               {{Out[D]}, {Trips}, {K}}, nullptr, Err);
  }

  /// Instructions the last launch on device \p D executed.
  uint64_t lastInstrs(unsigned D) {
    uint64_t N = 0;
    Jit->withDeviceLocked(D, [&](Device &Dev) {
      N = Dev.LastLaunch.TotalInstrs;
    });
    return N;
  }
};

TEST(TieredJitTest, EveryDeviceEndsOnTheFinalBinary) {
  // Each round launches a fresh specialization concurrently on every
  // device of a tiered pool, drains, then launches it once more per
  // device. However the launches raced the promotions and their
  // hot-swaps, every device must end on the Final binary, which the
  // warm launch's instruction count identifies.
  Context Ctx;
  std::unique_ptr<Module> M = buildDupLoopKernel(Ctx);
  CompiledProgram Prog = compileProgram(*M, GpuArch::AmdGcnSim);
  constexpr unsigned NumDevices = 4, Launchers = 3, Rounds = 1000;

  // Final reference: a tier-off runtime. The count must not depend on the
  // folded k, or one reference would not serve every round.
  uint64_t FinalInstrs = 0;
  {
    JitConfig JC;
    JC.UsePersistentCache = false;
    DupPool P(Prog, JC, 1);
    std::string Err;
    for (uint32_t K : {1u, Rounds + 7}) {
      ASSERT_EQ(P.launch(0, K, &Err), GpuError::Success) << Err;
      if (!FinalInstrs)
        FinalInstrs = P.lastInstrs(0);
      ASSERT_EQ(P.lastInstrs(0), FinalInstrs);
    }
  }
  // The Tier-0 flavor of the same specialization must be distinguishable.
  {
    Context C;
    std::unique_ptr<Module> TM = buildDupLoopKernel(C);
    Function *F = TM->getFunction("dup");
    specializeArguments(*F, {{2, 1}});
    specializeLaunchBounds(*F, 32);
    O3Options Opts;
    Opts.Preset = O3Preset::Fast;
    runO3(*TM, Opts);
    BackendOptions BO;
    BO.RegAlloc.Fast = true;
    std::vector<uint8_t> Obj =
        compileKernelToObject(*F, getAmdGcnSimTarget(), nullptr, BO);
    Device Dev(getAmdGcnSimTarget(), 1 << 20);
    DevicePtr Out = 0;
    ASSERT_EQ(gpuMalloc(Dev, &Out, 32 * 4), GpuError::Success);
    LoadedKernel *K = nullptr;
    std::string Err;
    ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
    ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{32, 1, 1},
                              {{Out}, {DupPool::Trips}, {1}}, &Err),
              GpuError::Success)
        << Err;
    ASSERT_NE(Dev.LastLaunch.TotalInstrs, FinalInstrs)
        << "Tier-0 and Final binaries must execute different counts";
  }

  for (JitConfig::AsyncMode Mode :
       {JitConfig::AsyncMode::Sync, JitConfig::AsyncMode::Fallback})
    for (bool MemoryCache : {true, false}) {
      SCOPED_TRACE(std::string("mode=") + asyncModeName(Mode) +
                   " memory cache=" + (MemoryCache ? "on" : "off"));
      JitConfig JC;
      JC.UsePersistentCache = false;
      JC.UseMemoryCache = MemoryCache;
      JC.Tier = true;
      JC.Async = Mode;
      JC.AsyncWorkers = 1;
      DupPool P(Prog, JC, NumDevices);
      // With both cache levels off every late launch recompiles, so fewer
      // rounds keep the pass short; the invariant is the same.
      const unsigned NumRounds = MemoryCache ? Rounds : Rounds / 4;

      // Persistent launcher threads, released once per round.
      constexpr unsigned NumThreads = NumDevices * Launchers;
      std::barrier Sync(NumThreads + 1);
      std::atomic<uint32_t> RoundK{0};
      std::vector<std::string> ThreadErrors(NumThreads);
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T != NumThreads; ++T)
        Threads.emplace_back([&, T] {
          for (unsigned R = 0; R != NumRounds; ++R) {
            Sync.arrive_and_wait();
            std::string Err;
            if (P.launch(T % NumDevices, RoundK.load(), &Err) !=
                    GpuError::Success &&
                ThreadErrors[T].empty())
              ThreadErrors[T] = Err;
            Sync.arrive_and_wait();
          }
        });

      unsigned Stuck = 0;
      std::string FirstStuck;
      for (unsigned R = 0; R != NumRounds; ++R) {
        RoundK.store(R + 1);
        Sync.arrive_and_wait(); // launchers go
        Sync.arrive_and_wait(); // launchers done
        P.Jit->drain();
        for (unsigned D = 0; D != NumDevices; ++D) {
          std::string Err;
          ASSERT_EQ(P.launch(D, R + 1, &Err), GpuError::Success) << Err;
          if (P.lastInstrs(D) != FinalInstrs && !Stuck++)
            FirstStuck = "round " + std::to_string(R) + " device " +
                         std::to_string(D) + " executed " +
                         std::to_string(P.lastInstrs(D)) + " instructions";
        }
      }
      for (std::thread &T : Threads)
        T.join();
      for (unsigned T = 0; T != NumThreads; ++T)
        EXPECT_TRUE(ThreadErrors[T].empty())
            << "thread " << T << " failed: " << ThreadErrors[T];
      EXPECT_EQ(Stuck, 0u) << "(device, specialization) pairs not on the "
                              "Final binary after drain(); first: "
                           << FirstStuck;

      JitRuntimeStats S = P.Jit->stats();
      if (MemoryCache) {
        // One compile per specialization per tier it runs at (Sync: Tier-0
        // then Final; Fallback: the cover then Final), one Final hot-swap.
        EXPECT_EQ(S.Tier0Compiles,
                  Mode == JitConfig::AsyncMode::Sync ? NumRounds : 0u);
        EXPECT_EQ(S.Compilations, NumRounds);
        EXPECT_EQ(S.Tier1Promotions, NumRounds);
      }
      if (Mode == JitConfig::AsyncMode::Fallback)
        EXPECT_GT(S.FallbackLaunches, 0u);
      else
        EXPECT_EQ(S.FallbackLaunches, 0u);
    }
}

TEST(TieredJitTest, ModuleIndexPrunesUnreachableFunctions) {
  // One bitcode blob holding two kernels and a shared helper, registered
  // for both kernels (as a multi-kernel embedding would): materializing a
  // specialization of one kernel must clone only its call closure.
  Context Ctx;
  Module M(Ctx, "multi");
  IRBuilder B(Ctx);
  Function *Helper = M.createFunction("scale3", Ctx.getF64Ty(),
                                      {Ctx.getF64Ty()}, {"x"},
                                      FunctionKind::Device);
  B.setInsertPoint(Helper->createBlock("entry", Ctx.getVoidTy()));
  B.createRet(B.createFMul(Helper->getArg(0), B.getDouble(3.0)));

  Function *KA = M.createFunction("ka", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                  {"out"}, FunctionKind::Kernel);
  KA->setJitAnnotation(JitAnnotation{{}});
  B.setInsertPoint(KA->createBlock("entry", Ctx.getVoidTy()));
  B.createStore(B.createCall(Helper, {B.getDouble(2.0)}), KA->getArg(0));
  B.createRet();

  Function *KB = M.createFunction("kb", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                  {"out"}, FunctionKind::Kernel);
  KB->setJitAnnotation(JitAnnotation{{}});
  B.setInsertPoint(KB->createBlock("entry", Ctx.getVoidTy()));
  B.createStore(B.getDouble(7.5), KB->getArg(0));
  B.createRet();

  std::vector<uint8_t> BC = writeBitcode(M);

  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(Dev, /*ModuleId=*/0x7157, JC);
  JitKernelInfo Info;
  Info.HostBitcode = BC;
  for (const char *Symbol : {"ka", "kb"}) {
    Info.Symbol = Symbol;
    Jit.registerKernel(Info);
  }

  DevicePtr Out = 0;
  ASSERT_EQ(gpuMalloc(Dev, &Out, 8), GpuError::Success);
  std::string Err;

  // ka's closure is {scale3, ka}: of the 3 functions in the blob, 1 (kb)
  // is pruned.
  ASSERT_EQ(Jit.launchKernel("ka", Dim3{1, 1, 1}, Dim3{1, 1, 1}, {{Out}},
                             &Err),
            GpuError::Success)
      << Err;
  double V = 0;
  gpuMemcpyDtoH(Dev, &V, Out, 8);
  EXPECT_DOUBLE_EQ(V, 6.0);
  EXPECT_EQ(Jit.stats().PrunedFunctions, 1u);

  // kb's closure is {kb} alone: 2 of 3 functions pruned; the counter
  // accumulates.
  ASSERT_EQ(Jit.launchKernel("kb", Dim3{1, 1, 1}, Dim3{1, 1, 1}, {{Out}},
                             &Err),
            GpuError::Success)
      << Err;
  gpuMemcpyDtoH(Dev, &V, Out, 8);
  EXPECT_DOUBLE_EQ(V, 7.5);
  EXPECT_EQ(Jit.stats().PrunedFunctions, 3u);
}

TEST(TieredJitTest, TierModeNamesRoundTrip) {
  EXPECT_STREQ(tierModeName(true), "on");
  EXPECT_STREQ(tierModeName(false), "off");
}

TEST(CompileServiceTest, ServableFollowsOneRule) {
  // The single cache-serve rule, over requested tier x entry tier x entry
  // fingerprint x linkage mode: an entry serves iff its fingerprint is the
  // current pipeline's for its own tier and linkage, and it is not a Tier-0
  // entry asked to serve a Final request.
  CodeCache Cache(/*UseMemory=*/true, /*UsePersistent=*/false, "");
  const JitStatHandles NoStats; // servable() updates no statistic
  CompileService Service(Cache, /*Promotions=*/false, 1, NoStats);
  enum Fingerprint { Current, OtherLinkage, OtherTier };
  const CodeTier Tiers[] = {CodeTier::Tier0, CodeTier::Final};
  uint64_t Hash = 1;
  unsigned Served = 0;
  for (bool Symbolic : {false, true})
    for (CodeTier Entry : Tiers)
      for (Fingerprint Fp : {Current, OtherLinkage, OtherTier})
        for (CodeTier Wanted : Tiers) {
          SCOPED_TRACE("symbolic=" + std::to_string(Symbolic) +
                       " entry=" + std::to_string(int(Entry)) +
                       " fingerprint=" + std::to_string(int(Fp)) +
                       " wanted=" + std::to_string(int(Wanted)));
          const CodeTier FpTier =
              Fp == OtherTier ? (Entry == CodeTier::Final ? CodeTier::Tier0
                                                          : CodeTier::Final)
                              : Entry;
          const bool FpSymbolic = Fp == OtherLinkage ? !Symbolic : Symbolic;
          // Fresh hash per case: a Tier-0 insert never downgrades a Final.
          Cache.insert(++Hash, {1, 2, 3}, Entry,
                       jitPipelineFingerprint(FpTier, FpSymbolic));
          const bool Expect = Fp == Current && (Wanted == CodeTier::Tier0 ||
                                                Entry == CodeTier::Final);
          std::optional<CachedCode> CC =
              Service.servable(Hash, Wanted, Symbolic);
          ASSERT_EQ(CC.has_value(), Expect);
          if (CC) {
            EXPECT_EQ(CC->Tier, Entry);
            EXPECT_EQ(CC->Object, (std::vector<uint8_t>{1, 2, 3}));
            ++Served;
          }
        }
  EXPECT_EQ(Served, 6u) << "2 linkages x (Tier-0 for Tier-0, Final for both)";
  EXPECT_FALSE(Service.servable(9999, CodeTier::Tier0, false))
      << "absent entry";
}

} // namespace
