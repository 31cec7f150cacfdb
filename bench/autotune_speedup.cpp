//===- autotune_speedup.cpp - variant-manager tuning gain and cost --------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the replay-driven kernel variant manager buys and what it
// costs. One loop-heavy kernel launch is captured, the default
// configuration's steady-state simulated kernel time is measured on the
// live device, then the variant manager races block-size and pipeline
// variants on throwaway replay devices, promotes the empirical winner
// through the Tier-1 hot-swap path, and the winner's steady state is
// measured on the same live device. A second runtime over the same
// persistent cache then re-tunes the same artifact: it must be served
// entirely by the persisted decision — zero trials, zero compiles, one
// TunerCacheHits.
//
// Emits the self-validated BENCH_autotune.json. The tuning cost
// (simulated trial seconds plus host wall seconds) is reported separately
// from program device time — trials run on replay devices and never
// advance the live device's kernel clock. Exits non-zero when the
// acceptance floor is missed: at least 3 variants raced, winner no slower
// than the recorded default (in the race and at live steady state), and a
// warm re-tune that compiles and races nothing. `--smoke` reduces the
// launch batch for the ctest wiring (bench_smoke_autotune) and applies the
// same validation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "capture/Artifact.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/AutoTuner.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Timer.h"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::bench;
using namespace proteus::gpu;

namespace {

constexpr uint32_t N = 4096;      // work items / elements
constexpr uint32_t Iters = 96;    // loop trips; above the default unroll cap
constexpr uint32_t Block0 = 256;  // recorded (default) block size

/// work(in, out, n, sf, iters): guarded gtid < n, then a loop of `iters`
/// trips accumulating in[gtid] * sf + k. The n and iters arguments are
/// jit-annotated, so specialization folds the guard and the trip count;
/// the in[gtid] * sf term is loop-invariant (LICM bait) and the 96-trip
/// bound sits above the default unroll cap of 64 but inside the
/// unroll-wide variant's 256 — the pipeline variants race for real.
std::unique_ptr<Module> buildWorkKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "autotune_speedup_app");
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Type *I32 = Ctx.getI32Ty();
  Function *F = M->createFunction(
      "work", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), I32, F64, I32},
      {"in", "out", "n", "sf", "iters"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{3, 5}});
  Value *In = F->getArg(0), *Out = F->getArg(1), *Nv = F->getArg(2);
  Value *Sf = F->getArg(3), *It = F->getArg(4);

  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Pre = F->createBlock("pre", Ctx.getVoidTy());
  BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Store = F->createBlock("store", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(ICmpPred::SLT, Gtid, Nv), Pre, Exit);

  // A dedicated preheader keeps the loop canonical (guarded headers have
  // no preheader, which defeats both LICM and the unroller); the in[gtid]
  // load lives here so the loop body is pure ALU work.
  B.setInsertPoint(Pre);
  Value *InV = B.createLoad(F64, B.createGep(F64, In, Gtid), "inv");
  B.createBr(Header);

  B.setInsertPoint(Header);
  PhiInst *K = B.createPhi(I32, "k");
  PhiInst *Acc = B.createPhi(F64, "acc");
  K->addIncoming(B.getInt32(0), Pre);
  Acc->addIncoming(B.getDouble(0.0), Pre);
  B.createCondBr(B.createICmp(ICmpPred::SLT, K, It), Body, Store);

  B.setInsertPoint(Body);
  Value *Inv = B.createFMul(InV, Sf, "scaled"); // loop-invariant
  Value *Term = B.createFAdd(Inv, B.createSIToFP(K, F64), "term");
  Value *Acc2 = B.createFAdd(Acc, Term, "acc2");
  Value *K2 = B.createAdd(K, B.getInt32(1), "k2");
  K->addIncoming(K2, Body);
  Acc->addIncoming(Acc2, Body);
  B.createBr(Header);

  B.setInsertPoint(Store);
  B.createStore(Acc, B.createGep(F64, Out, Gtid));
  B.createRet();

  B.setInsertPoint(Exit);
  B.createRet();
  return M;
}

/// Launches `Launches` warm launches at the given geometry and returns the
/// simulated kernel seconds per launch (the device clock is deterministic,
/// so no repetition/min dance is needed — this is the quantity the tuner
/// optimizes, reported apart from host wall time).
double steadyStateSimSeconds(Device &Dev, LoadedProgram &LP, Dim3 Grid,
                             Dim3 Block,
                             const std::vector<KernelArg> &Args,
                             unsigned Launches) {
  const double Before = Dev.kernelSeconds();
  for (unsigned L = 0; L != Launches; ++L) {
    std::string Error;
    if (LP.launch("work", Grid, Block, Args, &Error) != GpuError::Success) {
      std::fprintf(stderr, "FATAL: steady-state launch failed: %s\n",
                   Error.c_str());
      std::exit(1);
    }
  }
  return (Dev.kernelSeconds() - Before) / Launches;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  const unsigned Launches = Smoke ? 32 : 256;

  Context Ctx;
  std::unique_ptr<Module> M = buildWorkKernel(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  std::string CacheDir = fs::makeTempDirectory("proteus-autotune-bench");
  std::string CaptureDir = fs::makeTempDirectory("proteus-autotune-cap");

  int Status = 0;
  capture::CaptureArtifact A;
  double BaselineSimUs = 0, WinnerSimUs = 0;
  VariantTuningResult Cold;

  {
    JitConfig JC;
    JC.CacheDir = CacheDir;
    JC.Capture = true;
    JC.CaptureDir = CaptureDir;

    Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: program load failed: %s\n",
                   LP.error().c_str());
      return 1;
    }
    DevicePtr In = 0, Out = 0;
    gpuMalloc(Dev, &In, N * 8);
    gpuMalloc(Dev, &Out, N * 8);
    std::vector<double> H(N, 1.25);
    gpuMemcpyHtoD(Dev, In, H.data(), N * 8);
    std::vector<KernelArg> Args = {
        {In}, {Out}, {N}, {sem::boxF64(1.0009765625)}, {Iters}};

    const Dim3 Grid0{N / Block0, 1, 1};
    const Dim3 BlockDim0{Block0, 1, 1};

    // One launch records the artifact (dedup keeps the rest cheap).
    std::string Error;
    if (LP.launch("work", Grid0, BlockDim0, Args, &Error) !=
        GpuError::Success) {
      std::fprintf(stderr, "FATAL: capture launch failed: %s\n",
                   Error.c_str());
      return 1;
    }
    Jit.drain();
    std::vector<std::string> Files = fs::listFiles(CaptureDir);
    if (Files.size() != 1) {
      std::fprintf(stderr, "FATAL: expected 1 capture artifact, found %zu\n",
                   Files.size());
      return 1;
    }
    std::string ReadError;
    std::optional<capture::CaptureArtifact> Read =
        capture::readArtifactFile(CaptureDir + "/" + Files[0], &ReadError);
    if (!Read) {
      std::fprintf(stderr, "FATAL: cannot read artifact: %s\n",
                   ReadError.c_str());
      return 1;
    }
    A = *Read;

    // Program device time before tuning: the recorded default's steady
    // state on the live device.
    BaselineSimUs =
        steadyStateSimSeconds(Dev, LP, Grid0, BlockDim0, Args, Launches) *
        1e6;

    // Race the variants on the replay substrate, promote the winner here.
    VariantManager VM(Jit);
    Cold = VM.tuneArtifact(A);
    if (!Cold.Ok) {
      std::fprintf(stderr, "FATAL: tuning failed: %s\n", Cold.Error.c_str());
      return 1;
    }

    // Program device time after tuning: the promoted winner's steady state
    // at its tuned geometry, same device, same buffers.
    WinnerSimUs = steadyStateSimSeconds(Dev, LP, Cold.Winner.Grid,
                                        Cold.Winner.Block, Args, Launches) *
                  1e6;
    Jit.drain();
  }

  // A fresh runtime over the same persistent cache: the warm fleet. The
  // persisted decision must serve the whole session — no trials, no
  // compiles, winner installed straight from the code cache.
  VariantTuningResult Warm;
  JitRuntimeStats WarmStats;
  double WarmWallSeconds = 0;
  {
    JitConfig JC;
    JC.CacheDir = CacheDir;

    Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: warm program load failed: %s\n",
                   LP.error().c_str());
      return 1;
    }
    Timer T;
    VariantManager VM(Jit);
    Warm = VM.tuneArtifact(A);
    WarmWallSeconds = T.seconds();
    Jit.drain();
    WarmStats = Jit.stats();
  }

  fs::removeTree(CaptureDir);
  fs::removeTree(CacheDir);

  const double RaceSpeedup =
      Cold.WinnerSeconds > 0 ? Cold.BaselineSeconds / Cold.WinnerSeconds : 0;
  const double LiveSpeedup = WinnerSimUs > 0 ? BaselineSimUs / WinnerSimUs : 0;

  std::printf("autotune_speedup: %u-thread work kernel, %u launches/side\n",
              N, Launches);
  for (const VariantTrial &T : Cold.Trials)
    std::printf("  trial   %-12s %s  %8.3f us  (%llu instrs)\n",
                T.Spec.Name.c_str(),
                T.Ok && T.OutputMatch ? "ok " : "BAD",
                T.KernelSeconds * 1e6,
                static_cast<unsigned long long>(T.Stats.TotalInstrs));
  std::printf("  race    %zu trials, winner '%s' block %u: %.3f -> %.3f us "
              "(%.2fx)\n",
              Cold.Trials.size(), Cold.Winner.Name.c_str(),
              static_cast<unsigned>(Cold.Winner.Block.X),
              Cold.BaselineSeconds * 1e6, Cold.WinnerSeconds * 1e6,
              RaceSpeedup);
  std::printf("  live    %.3f -> %.3f us/launch (%.2fx)\n", BaselineSimUs,
              WinnerSimUs, LiveSpeedup);
  std::printf("  cost    %.3f ms simulated trial time, %.3f ms wall "
              "(separate from program device time)\n",
              Cold.TuningSeconds * 1e3, Cold.TuningWallSeconds * 1e3);
  std::printf("  warm    cache_hit=%d trials=%zu compiles=%llu "
              "(%.3f ms wall)\n",
              Warm.FromCache ? 1 : 0, Warm.Trials.size(),
              static_cast<unsigned long long>(WarmStats.Compilations),
              WarmWallSeconds * 1e3);

  JsonReporter Report("autotune");
  Report.beginRow("cold_tune")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .label("winner", Cold.Winner.Name)
      .metric("trials", static_cast<double>(Cold.Trials.size()))
      .metric("winner_block", Cold.Winner.Block.X)
      .metric("baseline_trial_us", Cold.BaselineSeconds * 1e6)
      .metric("winner_trial_us", Cold.WinnerSeconds * 1e6)
      .metric("race_speedup", RaceSpeedup)
      .metric("tuning_sim_ms", Cold.TuningSeconds * 1e3)
      .metric("tuning_wall_ms", Cold.TuningWallSeconds * 1e3);
  Report.beginRow("steady_state")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .metric("launches", Launches)
      .metric("baseline_us_per_launch", BaselineSimUs)
      .metric("winner_us_per_launch", WinnerSimUs)
      .metric("speedup", LiveSpeedup);
  Report.beginRow("warm_tune")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .metric("from_cache", Warm.FromCache ? 1 : 0)
      .metric("trials", static_cast<double>(Warm.Trials.size()))
      .metric("compilations", static_cast<double>(WarmStats.Compilations))
      .metric("tier0_compiles", static_cast<double>(WarmStats.Tier0Compiles))
      .metric("tuner_cache_hits",
              static_cast<double>(WarmStats.TunerCacheHits))
      .metric("wall_ms", WarmWallSeconds * 1e3);
  std::string WriteError;
  if (!Report.write("BENCH_autotune.json", &WriteError)) {
    std::fprintf(stderr, "FATAL: %s\n", WriteError.c_str());
    return 1;
  }

  // Acceptance floor.
  if (Cold.Trials.size() < 3) {
    std::fprintf(stderr, "FAIL: only %zu variants raced, want >= 3\n",
                 Cold.Trials.size());
    Status = 1;
  }
  if (Cold.BaselineSeconds > 0 &&
      Cold.WinnerSeconds > Cold.BaselineSeconds) {
    std::fprintf(stderr,
                 "FAIL: race winner %.6g us slower than default %.6g us\n",
                 Cold.WinnerSeconds * 1e6, Cold.BaselineSeconds * 1e6);
    Status = 1;
  }
  // The device clock is deterministic, so the promoted winner may not lose
  // to the default at live steady state; the sliver of tolerance only
  // absorbs floating-point accumulation across the launch loop.
  if (WinnerSimUs > BaselineSimUs * 1.001) {
    std::fprintf(stderr,
                 "FAIL: live winner %.6g us/launch slower than baseline "
                 "%.6g us/launch\n",
                 WinnerSimUs, BaselineSimUs);
    Status = 1;
  }
  if (!Warm.Ok || !Warm.FromCache || !Warm.Promoted ||
      !Warm.Trials.empty()) {
    std::fprintf(stderr,
                 "FAIL: warm re-tune was not served by the persisted "
                 "decision (ok=%d from_cache=%d promoted=%d trials=%zu): %s\n",
                 Warm.Ok ? 1 : 0, Warm.FromCache ? 1 : 0,
                 Warm.Promoted ? 1 : 0, Warm.Trials.size(),
                 Warm.Error.c_str());
    Status = 1;
  }
  if (WarmStats.Compilations != 0 || WarmStats.Tier0Compiles != 0 ||
      WarmStats.TunerTrials != 0 || WarmStats.TunerCacheHits != 1) {
    std::fprintf(stderr,
                 "FAIL: warm re-tune did work (compiles=%llu tier0=%llu "
                 "trials=%llu cache_hits=%llu; want 0/0/0/1)\n",
                 static_cast<unsigned long long>(WarmStats.Compilations),
                 static_cast<unsigned long long>(WarmStats.Tier0Compiles),
                 static_cast<unsigned long long>(WarmStats.TunerTrials),
                 static_cast<unsigned long long>(WarmStats.TunerCacheHits));
    Status = 1;
  }
  return Status;
}
