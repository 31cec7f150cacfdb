//===- async_throughput.cpp - async JIT pipeline latency/throughput ---------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the cold-launch ladder buys on the launch path, for the
// four configurations of JitConfig::AsyncMode x JitConfig::Tier (sync,
// fallback, sync+tier, fallback+tier):
//
//   1. Cold first-launch latency — the time the very first launch of a
//      not-yet-compiled specialization blocks the application. Both
//      fallback rows cover it with the generic binary and must hide nearly
//      the whole compilation (target: <= 10% of Sync).
//   2. Steady-state single-thread throughput — once everything is compiled
//      and loaded, all configurations must be within noise of each other.
//   3. Multi-threaded launch throughput — 8 threads hammering one runtime
//      across 8 specializations, with the in-flight table deduplicating
//      concurrent misses.
//
// The kernel is deliberately compile-heavy (a long straight-line FP chain
// the optimizer must chew through) and execution-light (1 block x 32
// threads), the regime where launch-visible compilation hurts most.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::bench;
using namespace proteus::gpu;

namespace {

constexpr uint32_t N = 32;          // one block of threads
constexpr unsigned ChainOps = 2400; // straight-line FP ops to compile

/// heavy(in: ptr, out: ptr, n: i32, sf: f64, si: i32), sf/si annotated.
///
/// The long FP chain sits behind `si > 100`, which is false for every
/// launch here (si = 7): the whole chain must be parsed, optimized and
/// lowered on each specialization compile, but executes zero times. This
/// models expensive-to-compile kernels whose per-launch runtime is small —
/// exactly where launch-visible compilation dominates end-to-end time.
std::unique_ptr<Module> buildHeavyKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "async_throughput_app");
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Type *I32 = Ctx.getI32Ty();
  Function *F = M->createFunction(
      "heavy", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), I32, F64, I32},
      {"in", "out", "n", "sf", "si"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{4, 5}});

  Value *In = F->getArg(0), *Out = F->getArg(1), *Nv = F->getArg(2);
  Value *Sf = F->getArg(3), *Si = F->getArg(4);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Work = F->createBlock("work", Ctx.getVoidTy());
  BasicBlock *Heavy = F->createBlock("heavy", Ctx.getVoidTy());
  BasicBlock *Light = F->createBlock("light", Ctx.getVoidTy());
  BasicBlock *Join = F->createBlock("join", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(ICmpPred::SLT, Gtid, Nv), Work, Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  B.setInsertPoint(Work);
  Value *V0 = B.createLoad(F64, B.createGep(F64, In, Gtid), "v");
  B.createCondBr(B.createICmp(ICmpPred::SGT, Si, B.getInt32(100)), Heavy,
                 Light);
  B.setInsertPoint(Heavy);
  Value *V = V0;
  for (unsigned I = 0; I != ChainOps; ++I) {
    double C = 0.75 + 0.001 * (I % 97);
    V = (I % 2) ? B.createFAdd(V, B.getDouble(C))
                : B.createFMul(V, B.getDouble(C));
    if (I % 16 == 15)
      V = B.createFAdd(V, Sf); // keep the annotated scalar live
  }
  B.createBr(Join);
  B.setInsertPoint(Light);
  Value *L = B.createFAdd(B.createFMul(V0, Sf), B.getDouble(1.0));
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *Phi = B.createPhi(F64, "res");
  Phi->addIncoming(V, Heavy);
  Phi->addIncoming(L, Light);
  B.createStore(Phi, B.createGep(F64, Out, Gtid));
  B.createRet();
  return M;
}

/// One row of the table: a launch-path mode, with or without tiering.
struct Setup {
  JitConfig::AsyncMode Mode;
  bool Tier;

  std::string name() const {
    return std::string(asyncModeName(Mode)) + (Tier ? "+tier" : "");
  }
  bool covered() const { return Mode == JitConfig::AsyncMode::Fallback; }
};

struct Harness {
  Device Dev;
  JitRuntime Jit;
  LoadedProgram LP;
  DevicePtr In = 0, Out = 0;

  Harness(const CompiledProgram &Prog, const Setup &Cfg)
      : Dev(getAmdGcnSimTarget(), 1ull << 24),
        Jit(Dev, Prog.ModuleId, makeConfig(Cfg)), LP(Dev, Prog, &Jit) {
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: program load failed: %s\n",
                   LP.error().c_str());
      std::exit(1);
    }
    gpuMalloc(Dev, &In, N * 8);
    gpuMalloc(Dev, &Out, N * 8);
    std::vector<double> H(N, 1.0);
    gpuMemcpyHtoD(Dev, In, H.data(), N * 8);
  }

  static JitConfig makeConfig(const Setup &Cfg) {
    JitConfig JC;
    JC.UsePersistentCache = false; // cold-start regime, in-memory only
    JC.Async = Cfg.Mode;
    JC.Tier = Cfg.Tier;
    JC.AsyncWorkers = 4;
    return JC;
  }

  bool launch(double Sf) {
    std::vector<KernelArg> Args = {{In}, {Out}, {N}, {sem::boxF64(Sf)}, {7}};
    std::string Err;
    if (LP.launch("heavy", Dim3{1, 1, 1}, Dim3{32, 1, 1}, Args, &Err) !=
        GpuError::Success) {
      std::fprintf(stderr, "FATAL: launch failed: %s\n", Err.c_str());
      std::exit(1);
    }
    return true;
  }
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

} // namespace

int main() {
  Context Ctx;
  std::unique_ptr<Module> M = buildHeavyKernel(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  const std::vector<Setup> Setups = {
      {JitConfig::AsyncMode::Sync, false},
      {JitConfig::AsyncMode::Fallback, false},
      {JitConfig::AsyncMode::Sync, true},
      {JitConfig::AsyncMode::Fallback, true}};
  const std::vector<int> Widths = {16, 18, 20, 20, 14, 14};

  // --- 1. Cold first-launch latency ----------------------------------------
  constexpr int Trials = 5;
  std::vector<double> FirstLaunch;
  for (const Setup &Cfg : Setups) {
    std::vector<double> Samples;
    for (int T = 0; T != Trials; ++T) {
      Harness H(Prog, Cfg); // fresh runtime: everything cold
      Timer First;
      H.launch(2.0 + T); // distinct sf per trial is irrelevant: fresh cache
      Samples.push_back(First.seconds());
      H.Jit.drain();
    }
    FirstLaunch.push_back(median(Samples));
  }

  // --- 2. Steady-state single-thread throughput ----------------------------
  constexpr int SteadyLaunches = 2000;
  std::vector<double> Steady;
  for (const Setup &Cfg : Setups) {
    Harness H(Prog, Cfg);
    H.launch(2.0);
    H.Jit.drain();
    H.launch(2.0); // ensure the specialized binary is loaded
    Timer T;
    for (int I = 0; I != SteadyLaunches; ++I)
      H.launch(2.0);
    Steady.push_back(SteadyLaunches / T.seconds());
  }

  // --- 3. Multi-threaded throughput ----------------------------------------
  constexpr unsigned Threads = 8, PerThread = 250, Specs = 8;
  std::printf("=== Async JIT pipeline: launch latency and throughput"
              " (amdgcn-sim, cold in-memory cache) ===\n\n");
  printRow({"Config", "1st launch (ms)", "steady (launch/s)",
            "8-thr (launch/s)", "dedup waits", "fallbacks"},
           Widths);
  for (size_t C = 0; C != Setups.size(); ++C) {
    Harness H(Prog, Setups[C]);
    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        ++Ready;
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        for (unsigned I = 0; I != PerThread; ++I)
          H.launch(3.0 + ((I + T) % Specs));
      });
    while (Ready.load() != Threads)
      std::this_thread::yield();
    Timer Wall;
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Pool)
      T.join();
    double MtThroughput = double(Threads) * PerThread / Wall.seconds();
    H.Jit.drain();
    JitRuntimeStats S = H.Jit.stats();
    printRow({Setups[C].name(), formatString("%.3f", FirstLaunch[C] * 1e3),
              formatString("%.0f", Steady[C]),
              formatString("%.0f", MtThroughput),
              formatString("%llu", (unsigned long long)S.DedupedWaits),
              formatString("%llu", (unsigned long long)S.FallbackLaunches)},
             Widths);
  }

  // --- Acceptance: both fallback rows hide the compile from the first
  // launch -------------------------------------------------------------------
  bool Ok = true;
  std::printf("\n");
  for (size_t C = 0; C != Setups.size(); ++C) {
    if (!Setups[C].covered())
      continue;
    double Ratio = FirstLaunch[C] / FirstLaunch[0];
    std::printf("%s first-launch latency = %.1f%% of sync"
                " (target <= 10%%): %s\n",
                Setups[C].name().c_str(), Ratio * 100.0,
                Ratio <= 0.10 ? "OK" : "MISSED");
    Ok &= Ratio <= 0.10;
  }
  std::printf("The generic cover hides compile time from the launch path;"
              " steady-state configurations are\nequivalent by construction"
              " (all hit the loaded-kernel fast path).\n");
  return Ok ? 0 : 1;
}
