//===- jit_test.cpp - Proteus core tests ----------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the paper's system: AOT extensions (bitcode
// extraction, launch redirection), the __jit_launch_kernel runtime (global
// linking, RCF/LB specialization, O3, backend), and the two-level
// specialization cache including persistence and stale-entry invalidation.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Context.h"
#include "jit/Program.h"
#include "jitify/Jitify.h"
#include "ir/IRPrinter.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

TEST(SpecializationHashTest, EveryFieldMatters) {
  SpecializationKey Base;
  Base.ModuleId = 0x1234;
  Base.KernelSymbol = "daxpy";
  Base.Arch = GpuArch::AmdGcnSim;
  Base.FoldedArgs = {{0, 100}, {3, 7}};
  Base.LaunchBoundsThreads = 256;
  uint64_t H0 = computeSpecializationHash(Base);
  EXPECT_EQ(H0, computeSpecializationHash(Base)) << "deterministic";

  SpecializationKey K = Base;
  K.ModuleId ^= 1; // source change -> different key (stale-cache defense)
  EXPECT_NE(H0, computeSpecializationHash(K));
  K = Base;
  K.KernelSymbol = "daxpy2";
  EXPECT_NE(H0, computeSpecializationHash(K));
  K = Base;
  K.Arch = GpuArch::NvPtxSim;
  EXPECT_NE(H0, computeSpecializationHash(K));
  K = Base;
  K.FoldedArgs[1].Bits = 8;
  EXPECT_NE(H0, computeSpecializationHash(K));
  K = Base;
  K.FoldedArgs.pop_back();
  EXPECT_NE(H0, computeSpecializationHash(K));
  K = Base;
  K.LaunchBoundsThreads = 128;
  EXPECT_NE(H0, computeSpecializationHash(K));
}

TEST(CodeCacheTest, TwoLevelLookupAndPromotion) {
  TempDir Tmp;
  std::vector<uint8_t> Obj = {1, 2, 3, 4, 5};
  {
    CodeCache C(true, true, Tmp.Path);
    EXPECT_FALSE(C.lookup(42).has_value());
    C.insert(42, Obj);
    auto Hit = C.lookup(42);
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(*Hit, Obj);
    EXPECT_EQ(C.stats().MemoryHits, 1u);
    EXPECT_EQ(C.stats().Misses, 1u);
  }
  {
    // New "process": memory cold, persistent warm.
    CodeCache C(true, true, Tmp.Path);
    auto Hit = C.lookup(42);
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(*Hit, Obj);
    EXPECT_EQ(C.stats().PersistentHits, 1u);
    // Promoted to memory: second lookup hits level 1.
    C.lookup(42);
    EXPECT_EQ(C.stats().MemoryHits, 1u);
  }
  {
    // Persistent disabled: nothing found.
    CodeCache C(true, false, Tmp.Path);
    EXPECT_FALSE(C.lookup(42).has_value());
  }
}

TEST(CodeCacheTest, PersistentFilesFollowNamingScheme) {
  TempDir Tmp;
  CodeCache C(true, true, Tmp.Path);
  C.insert(0xabcdef, {9, 9});
  auto Files = proteus::fs::listFiles(Tmp.Path);
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(Files[0], "cache-jit-0000000000abcdef.o");
  C.clearPersistent();
  EXPECT_TRUE(proteus::fs::listFiles(Tmp.Path).empty());
}

TEST(AotCompilerTest, ExtractKernelModulePullsClosure) {
  Context Ctx;
  Module M(Ctx, "app");
  IRBuilder B(Ctx);
  M.createGlobal("weights", Ctx.getF64Ty(), 8);
  Function *Helper = M.createFunction("helper", Ctx.getF64Ty(),
                                      {Ctx.getF64Ty()}, {"x"},
                                      FunctionKind::Device);
  B.setInsertPoint(Helper->createBlock("entry", Ctx.getVoidTy()));
  Value *W = B.createLoad(Ctx.getF64Ty(), M.getGlobal("weights"));
  B.createRet(B.createFMul(Helper->getArg(0), W));

  Function *K = M.createFunction("kern", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  K->setJitAnnotation(JitAnnotation{{}});
  B.setInsertPoint(K->createBlock("entry", Ctx.getVoidTy()));
  Value *R = B.createCall(Helper, {B.getDouble(2.0)});
  B.createStore(R, K->getArg(0));
  B.createRet();

  // A second, unrelated kernel that must NOT be extracted.
  buildDaxpyKernel(M);

  auto Extracted = extractKernelModule(M, "kern");
  expectValid(*Extracted);
  EXPECT_NE(Extracted->getFunction("kern"), nullptr);
  EXPECT_NE(Extracted->getFunction("helper"), nullptr);
  EXPECT_NE(Extracted->getGlobal("weights"), nullptr);
  EXPECT_EQ(Extracted->getFunction("daxpy"), nullptr);
}

TEST(AotCompilerTest, ProteusExtensionsProduceSectionsPerArch) {
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);

  AotOptions Amd;
  Amd.Arch = GpuArch::AmdGcnSim;
  Amd.EnableProteusExtensions = true;
  CompiledProgram PA = aotCompile(M, Amd);
  EXPECT_EQ(PA.JitKernels.count("daxpy"), 1u);
  EXPECT_EQ(PA.Image.JitSections.count("daxpy"), 1u)
      << "AMD path embeds .jit.<sym> sections";
  EXPECT_EQ(PA.Image.JitDataGlobals.count("daxpy"), 0u);
  EXPECT_EQ(PA.JitArgIndices.at("daxpy"), (std::vector<uint32_t>{1, 4}));

  AotOptions Nv = Amd;
  Nv.Arch = GpuArch::NvPtxSim;
  CompiledProgram PN = aotCompile(M, Nv);
  EXPECT_EQ(PN.Image.JitSections.count("daxpy"), 0u);
  EXPECT_EQ(PN.Image.JitDataGlobals.count("daxpy"), 1u)
      << "NVIDIA path stores bitcode in the data segment";

  // Without extensions: plain AOT, no JIT kernels.
  AotOptions Plain;
  Plain.Arch = GpuArch::AmdGcnSim;
  CompiledProgram PP = aotCompile(M, Plain);
  EXPECT_TRUE(PP.JitKernels.empty());
  EXPECT_TRUE(PP.Image.JitSections.empty());
  EXPECT_EQ(PP.Image.KernelObjects.count("daxpy"), 1u);
}

/// Common fixture: daxpy program end-to-end under a configurable JIT.
struct DaxpyHarness {
  Context Ctx;
  Module M{Ctx, "daxpy_app"};
  Function *F;
  static constexpr uint32_t N = 64;

  DaxpyHarness() { F = buildDaxpyKernel(M); }

  /// Runs one launch; returns the resulting y[] and leaves runtimes
  /// available for inspection.
  std::vector<double> run(GpuArch Arch, bool UseJit, const JitConfig &JC,
                          JitRuntime **JitOut = nullptr,
                          Device **DevOut = nullptr) {
    AotOptions AO;
    AO.Arch = Arch;
    AO.EnableProteusExtensions = UseJit;
    CompiledProgram Prog = aotCompile(M, AO);

    static std::unique_ptr<Device> Dev;
    static std::unique_ptr<JitRuntime> Jit;
    Dev = std::make_unique<Device>(getTarget(Arch), 1 << 22);
    Jit = UseJit ? std::make_unique<JitRuntime>(*Dev, Prog.ModuleId, JC)
                 : nullptr;
    LoadedProgram LP(*Dev, Prog, Jit.get());
    EXPECT_TRUE(LP.ok()) << LP.error();

    DevicePtr X = 0, Y = 0;
    EXPECT_EQ(gpuMalloc(*Dev, &X, N * 8), GpuError::Success);
    EXPECT_EQ(gpuMalloc(*Dev, &Y, N * 8), GpuError::Success);
    std::vector<double> HX(N), HY(N);
    for (uint32_t I = 0; I != N; ++I) {
      HX[I] = 0.5 * I;
      HY[I] = 100.0 - I;
    }
    gpuMemcpyHtoD(*Dev, X, HX.data(), N * 8);
    gpuMemcpyHtoD(*Dev, Y, HY.data(), N * 8);

    std::vector<KernelArg> Args = {{sem::boxF64(3.0)}, {X}, {Y}, {N}};
    std::string Err;
    EXPECT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
    std::vector<double> Out(N);
    gpuMemcpyDtoH(*Dev, Out.data(), Y, N * 8);
    if (JitOut)
      *JitOut = Jit.get();
    if (DevOut)
      *DevOut = Dev.get();
    return Out;
  }

  static std::vector<double> expected() {
    std::vector<double> E(N);
    for (uint32_t I = 0; I != N; ++I)
      E[I] = 3.0 * (0.5 * I) + (100.0 - I);
    return E;
  }
};

TEST(JitRuntimeTest, AotAndJitProduceIdenticalResults) {
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    DaxpyHarness H1;
    std::vector<double> AotOut = H1.run(Arch, false, JitConfig{});

    TempDir Tmp;
    JitConfig JC;
    JC.CacheDir = Tmp.Path;
    DaxpyHarness H2;
    JitRuntime *Jit = nullptr;
    std::vector<double> JitOut = H2.run(Arch, true, JC, &Jit);

    EXPECT_EQ(AotOut, DaxpyHarness::expected());
    EXPECT_EQ(JitOut, DaxpyHarness::expected());
    ASSERT_NE(Jit, nullptr);
    EXPECT_EQ(Jit->stats().Compilations, 1u);
  }
}

TEST(JitRuntimeTest, SameSpecializationHitsCacheDifferentMisses) {
  TempDir Tmp;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  Device Dev(getAmdGcnSimTarget(), 1 << 22);
  JitConfig JC;
  JC.CacheDir = Tmp.Path;
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::string Err;
  auto Launch = [&](double A, uint32_t N) {
    std::vector<KernelArg> Args = {{sem::boxF64(A)}, {X}, {Y}, {N}};
    ASSERT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
  };
  Launch(3.0, 64);
  EXPECT_EQ(Jit.stats().Compilations, 1u);
  Launch(3.0, 64); // identical specialization: cached
  EXPECT_EQ(Jit.stats().Compilations, 1u);
  Launch(4.0, 64); // different folded value of a: new specialization
  EXPECT_EQ(Jit.stats().Compilations, 2u);
  Launch(3.0, 32); // different folded n: new specialization
  EXPECT_EQ(Jit.stats().Compilations, 3u);
  EXPECT_EQ(Jit.cache().stats().Insertions, 3u);
  EXPECT_GT(Jit.cache().memoryBytes(), 0u);
}

TEST(JitRuntimeTest, SpecializationHashIsMemoizedPerArgValues) {
  // The launch fast path must not rehash the full specialization key on
  // every call: the hash is memoized per (kernel, annotated-arg values,
  // launch-bounds threads), and HashMemoHits proves the memo serves
  // repeated launches while distinct specializations still miss it.
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  Device Dev(getAmdGcnSimTarget(), 1 << 22);
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::string Err;
  auto Launch = [&](double A, uint32_t N) {
    std::vector<KernelArg> Args = {{sem::boxF64(A)}, {X}, {Y}, {N}};
    ASSERT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
  };

  Launch(3.0, 64); // first sighting of this key: computes and memoizes
  EXPECT_EQ(Jit.stats().HashMemoHits, 0u);
  Launch(3.0, 64);
  Launch(3.0, 64);
  EXPECT_EQ(Jit.stats().HashMemoHits, 2u)
      << "repeat launches must be served by the memo";
  Launch(4.0, 64); // different folded value: a genuine memo miss
  EXPECT_EQ(Jit.stats().HashMemoHits, 2u);
  Launch(4.0, 64);
  EXPECT_EQ(Jit.stats().HashMemoHits, 3u);
  // The memo only short-circuits hashing — cache behaviour is unchanged.
  EXPECT_EQ(Jit.stats().Compilations, 2u);
  EXPECT_EQ(Jit.stats().Launches, 5u);
}

TEST(JitRuntimeTest, PersistentCacheSurvivesProcessRestart) {
  TempDir Tmp;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  JitConfig JC;
  JC.CacheDir = Tmp.Path;

  auto RunOnce = [&](uint64_t ExpectCompilations) {
    Device Dev(getAmdGcnSimTarget(), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    ASSERT_TRUE(LP.ok()) << LP.error();
    DevicePtr X = 0, Y = 0;
    gpuMalloc(Dev, &X, 64 * 8);
    gpuMalloc(Dev, &Y, 64 * 8);
    std::vector<KernelArg> Args = {{sem::boxF64(2.0)}, {X}, {Y}, {64}};
    std::string Err;
    ASSERT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
    EXPECT_EQ(Jit.stats().Compilations, ExpectCompilations);
  };
  RunOnce(1); // cold: compiles and persists
  RunOnce(0); // warm: loaded from cache-jit-<hash>.o
  auto Files = proteus::fs::listFilesWithInfo(Tmp.Path);
  ASSERT_FALSE(Files.empty());
  EXPECT_GT(Files[0].Bytes, 0u);
}

TEST(JitRuntimeTest, SourceChangeInvalidatesStaleCacheEntries) {
  TempDir Tmp;
  JitConfig JC;
  JC.CacheDir = Tmp.Path;

  auto Compile = [&](double Constant) {
    Context Ctx; // fresh context per "build"
    auto M = std::make_unique<Module>(Ctx, "app");
    IRBuilder B(Ctx);
    Function *F = M->createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                    {"out"}, FunctionKind::Kernel);
    F->setJitAnnotation(JitAnnotation{{}});
    B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
    B.createStore(B.getDouble(Constant), F->getArg(0));
    B.createRet();
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    CompiledProgram Prog = aotCompile(*M, AO);

    Device Dev(getAmdGcnSimTarget(), 1 << 20);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    EXPECT_TRUE(LP.ok()) << LP.error();
    DevicePtr Out = 0;
    gpuMalloc(Dev, &Out, 8);
    std::string Err;
    EXPECT_EQ(LP.launch("k", Dim3{1, 1, 1}, Dim3{1, 1, 1}, {{Out}}, &Err),
              GpuError::Success)
        << Err;
    double V = 0;
    gpuMemcpyDtoH(Dev, &V, Out, 8);
    return std::make_pair(V, Jit.stats().Compilations);
  };

  auto [V1, C1] = Compile(1.0);
  EXPECT_DOUBLE_EQ(V1, 1.0);
  EXPECT_EQ(C1, 1u);
  // "Edit the source" (different constant): the module id changes, so the
  // persistent entry from the previous build must NOT be reused.
  auto [V2, C2] = Compile(2.0);
  EXPECT_DOUBLE_EQ(V2, 2.0) << "stale cache entry served for new source!";
  EXPECT_EQ(C2, 1u) << "recompilation expected after source change";
}

TEST(JitRuntimeTest, GlobalLinkingSharesStateWithAot) {
  // A JIT kernel increments a device global; an AOT kernel reads it. Both
  // must observe the same storage.
  TempDir Tmp;
  Context Ctx;
  Module M(Ctx, "app");
  IRBuilder B(Ctx);
  M.createGlobal("counter", Ctx.getI64Ty(), 1);

  Function *Inc = M.createFunction("inc", Ctx.getVoidTy(), {}, {},
                                   FunctionKind::Kernel);
  Inc->setJitAnnotation(JitAnnotation{{}});
  B.setInsertPoint(Inc->createBlock("entry", Ctx.getVoidTy()));
  B.createAtomicAdd(M.getGlobal("counter"), B.getInt64(1));
  B.createRet();

  Function *Read = M.createFunction("read", Ctx.getVoidTy(),
                                    {Ctx.getPtrTy()}, {"out"},
                                    FunctionKind::Kernel);
  B.setInsertPoint(Read->createBlock("entry", Ctx.getVoidTy()));
  Value *V = B.createLoad(Ctx.getI64Ty(), M.getGlobal("counter"));
  B.createStore(V, Read->getArg(0));
  B.createRet();

  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);
  EXPECT_EQ(Prog.JitKernels.count("inc"), 1u);
  EXPECT_EQ(Prog.JitKernels.count("read"), 0u) << "read is not annotated";

  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  JitConfig JC;
  JC.CacheDir = Tmp.Path;
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();

  std::string Err;
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(LP.launch("inc", Dim3{1, 1, 1}, Dim3{4, 1, 1}, {}, &Err),
              GpuError::Success)
        << Err;
  DevicePtr Out = 0;
  gpuMalloc(Dev, &Out, 8);
  ASSERT_EQ(LP.launch("read", Dim3{1, 1, 1}, Dim3{1, 1, 1}, {{Out}}, &Err),
            GpuError::Success)
      << Err;
  uint64_t Count = 0;
  gpuMemcpyDtoH(Dev, &Count, Out, 8);
  EXPECT_EQ(Count, 12u) << "3 launches x 4 threads through the JIT path";
}

TEST(JitRuntimeTest, SpecializationTogglesChangeCompiledCode) {
  TempDir Tmp;
  Context Ctx;
  Module M(Ctx, "app");
  Function *F = buildLoopSumKernel(M);
  F->setJitAnnotation(JitAnnotation{{3}});
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  auto InstrsWithConfig = [&](bool RCF, bool LB) -> uint64_t {
    Device Dev(getAmdGcnSimTarget(), 1 << 22);
    JitConfig JC;
    JC.EnableRCF = RCF;
    JC.EnableLaunchBounds = LB;
    JC.UsePersistentCache = false;
    JC.CacheDir = Tmp.Path;
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    EXPECT_TRUE(LP.ok()) << LP.error();
    DevicePtr In = 0, Out = 0;
    gpuMalloc(Dev, &In, 32 * 8);
    gpuMalloc(Dev, &Out, 32 * 8);
    std::vector<KernelArg> Args = {{In}, {Out}, {10}};
    std::string Err;
    EXPECT_EQ(LP.launch("loopsum", Dim3{1, 1, 1}, Dim3{32, 1, 1}, Args,
                        &Err),
              GpuError::Success)
        << Err;
    return Dev.LastLaunch.TotalInstrs;
  };

  uint64_t None = InstrsWithConfig(false, false);
  uint64_t Rcf = InstrsWithConfig(true, false);
  // RCF folds the loop bound -> full unroll -> fewer dynamic instructions.
  EXPECT_LT(Rcf, None);
}

TEST(JitifyTest, RequiresNvidiaAndCachesByInstantiation) {
  Device Amd(getAmdGcnSimTarget(), 1 << 20);
  JitifyRuntime Bad(Amd);
  EXPECT_FALSE(Bad.ok());

  Device Dev(getNvPtxSimTarget(), 1 << 22);
  JitifyRuntime Jitify(Dev);
  ASSERT_TRUE(Jitify.ok());

  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  Jitify.addProgram("daxpy", printModule(M), {1, 4});

  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::vector<double> HX(64, 2.0), HY(64, 1.0);
  gpuMemcpyHtoD(Dev, X, HX.data(), 64 * 8);
  gpuMemcpyHtoD(Dev, Y, HY.data(), 64 * 8);
  std::vector<KernelArg> Args = {{sem::boxF64(3.0)}, {X}, {Y}, {64}};
  std::string Err;
  ASSERT_EQ(Jitify.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                          &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(Jitify.stats().Compilations, 1u);
  ASSERT_EQ(Jitify.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                          &Err),
            GpuError::Success);
  EXPECT_EQ(Jitify.stats().CacheHits, 1u);

  std::vector<double> Out(64);
  gpuMemcpyDtoH(Dev, Out.data(), Y, 64 * 8);
  // y updated in place twice: 3*2+1 = 7, then 3*2+7 = 13.
  for (double V : Out)
    EXPECT_DOUBLE_EQ(V, 13.0);
  EXPECT_GT(Jitify.stats().FrontendSeconds, 0.0)
      << "source parsing cost must be real";
}

} // namespace

namespace {

TEST(JitRuntimeTest, VerifyIRModeAcceptsValidKernels) {
  proteus::fs::createDirectories("/tmp/proteus-verify-test");
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);
  Device Dev(getAmdGcnSimTarget(), 1 << 22);
  JitConfig JC;
  JC.VerifyIR = true;
  JC.UsePersistentCache = false;
  JC.CacheDir = "/tmp/proteus-verify-test";
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  ASSERT_TRUE(LP.ok()) << LP.error();
  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::vector<KernelArg> Args = {{sem::boxF64(1.0)}, {X}, {Y}, {64}};
  std::string Err;
  EXPECT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
            GpuError::Success)
      << Err;
  EXPECT_EQ(Jit.stats().Compilations, 1u);
}

} // namespace
