//===- quickstart.cpp - Proteus end-to-end quickstart ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The paper's Figure 2 walkthrough on the simulated stack:
//
//   1. write a GPU kernel (daxpy) and annotate it for JIT specialization
//      with annotate("jit", 1, 4) — fold argument a (1) and n (4);
//   2. AOT-compile the program with the Proteus extensions enabled: the
//      "plugin" extracts the kernel's unoptimized bitcode into the device
//      image and redirects its launches to __jit_launch_kernel;
//   3. run: the first launch JIT-compiles a specialization (folding the
//      runtime values of a and n, setting launch bounds from the actual
//      block size), caches it, and every subsequent identical launch hits
//      the cache.
//
// Build and run:   ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/FileSystem.h"

#include <cstdio>
#include <vector>

using namespace proteus;
using namespace proteus::gpu;

/// Builds the annotated daxpy kernel: y[i] = a * x[i] + y[i].
static std::unique_ptr<pir::Module> buildProgram(pir::Context &Ctx) {
  auto M = std::make_unique<pir::Module>(Ctx, "quickstart");
  pir::IRBuilder B(Ctx);
  pir::Function *F = M->createFunction(
      "daxpy", Ctx.getVoidTy(),
      {Ctx.getF64Ty(), Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty()},
      {"a", "x", "y", "n"}, pir::FunctionKind::Kernel);
  // __attribute__((annotate("jit", 1, 4))) — specialize a and n.
  F->setJitAnnotation(pir::JitAnnotation{{1, 4}});

  pir::BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  pir::BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  pir::BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  pir::Value *I = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(pir::ICmpPred::SLT, I, F->getArg(3)), Body,
                 Exit);
  B.setInsertPoint(Body);
  pir::Value *Xp = B.createGep(Ctx.getF64Ty(), F->getArg(1), I);
  pir::Value *Yp = B.createGep(Ctx.getF64Ty(), F->getArg(2), I);
  pir::Value *Ax = B.createFMul(F->getArg(0),
                                B.createLoad(Ctx.getF64Ty(), Xp));
  B.createStore(B.createFAdd(Ax, B.createLoad(Ctx.getF64Ty(), Yp)), Yp);
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  return M;
}

int main() {
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M = buildProgram(Ctx);

  // --- AOT build with the Proteus extensions -------------------------------
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Program = aotCompile(*M, AO);
  std::printf("AOT build: %zu kernel binaries, %zu JIT bitcode sections, "
              "module id %016llx\n",
              Program.Image.KernelObjects.size(),
              Program.Image.JitSections.size(),
              static_cast<unsigned long long>(Program.ModuleId));

  // --- Runtime --------------------------------------------------------------
  Device Dev(getAmdGcnSimTarget());
  JitConfig JC;
  JC.CacheDir = fs::makeTempDirectory("proteus-quickstart-cache");
  // Declared before the runtime, so the directory goes after the runtime.
  struct RemoveOnExit {
    std::string Dir;
    ~RemoveOnExit() { fs::removeTree(Dir); }
  } CacheCleanup{JC.CacheDir};
  JitRuntime Jit(Dev, Program.ModuleId, JC);
  LoadedProgram LP(Dev, Program, &Jit);
  if (!LP.ok()) {
    std::fprintf(stderr, "load failed: %s\n", LP.error().c_str());
    return 1;
  }

  constexpr uint32_t N = 1 << 16;
  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, N * sizeof(double));
  gpuMalloc(Dev, &Y, N * sizeof(double));
  std::vector<double> Host(N);
  for (uint32_t I = 0; I != N; ++I)
    Host[I] = 1.0 * I;
  gpuMemcpyHtoD(Dev, X, Host.data(), N * sizeof(double));
  std::fill(Host.begin(), Host.end(), 10.0);
  gpuMemcpyHtoD(Dev, Y, Host.data(), N * sizeof(double));

  // --- Launch through __jit_launch_kernel ------------------------------------
  std::vector<KernelArg> Args = {
      {pir::sem::boxF64(2.0)}, {X}, {Y}, {N}};
  std::string Err;
  for (int Iter = 0; Iter != 5; ++Iter) {
    if (LP.launch("daxpy", Dim3{N / 256, 1, 1}, Dim3{256, 1, 1}, Args,
                  &Err) != GpuError::Success) {
      std::fprintf(stderr, "launch failed: %s\n", Err.c_str());
      return 1;
    }
  }

  gpuMemcpyDtoH(Dev, Host.data(), Y, N * sizeof(double));
  std::printf("y[1] = %.1f (expected %.1f after 5 daxpy iterations)\n",
              Host[1], 10.0 + 5 * 2.0 * 1.0);

  const JitRuntimeStats &S = Jit.stats();
  std::printf("JIT launches: %llu, compilations: %llu (the other %llu hit "
              "the specialization cache)\n",
              static_cast<unsigned long long>(S.Launches),
              static_cast<unsigned long long>(S.Compilations),
              static_cast<unsigned long long>(S.Launches - S.Compilations));
  std::printf("code cache: %llu bytes in memory, %llu bytes persistent "
              "(%s)\n",
              static_cast<unsigned long long>(Jit.cache().memoryBytes()),
              static_cast<unsigned long long>(Jit.cache().persistentBytes()),
              JC.CacheDir.c_str());
  std::printf("last kernel: %llu dynamic instructions, %u registers, "
              "%.1f%% occupancy\n",
              static_cast<unsigned long long>(Dev.LastLaunch.TotalInstrs),
              Dev.LastLaunch.RegsUsed, 100.0 * Dev.LastLaunch.Occupancy);
  return Host[1] == 20.0 ? 0 : 1;
}
