//===- capture_overhead.cpp - launch-path cost of PROTEUS_CAPTURE ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what capture recording costs on the steady-state launch path:
// the same warm-cache launch loop is timed with capture off and with
// capture on in its default configuration (launch-shape dedup: each
// distinct specialization/geometry/argument shape is recorded once, every
// repeat is a counted skip). The two loops run on two live runtimes and
// alternate repetitions, so each repetition yields one paired on/off ratio
// taken under the same host conditions; the overhead is the median of
// those ratios, so a burst of contention during one repetition moves one
// ratio, not the verdict. At steady state the loop re-launches shapes that
// are already on disk, so capture must cost one hash probe per launch —
// every timed launch of the capture-on loop must be a dedup skip, it must
// shed nothing (drops == 0), and it must stay within a few percent of the
// capture-off loop.
//
// A third, ungated row times the capture-every-launch stress mode
// (PROTEUS_CAPTURE_DEDUP=off) for reference: it snapshots memory and
// persists an artifact per launch, so its cost scales with writer
// throughput, not with the launch path.
//
// Emits the self-validated BENCH_capture.json and exits non-zero when the
// acceptance floor is missed: every timed capture-on launch a dedup skip,
// capture-on overhead <= 5% at steady state, zero drops. `--smoke` reduces the batch for the ctest wiring
// (bench_smoke_capture) and applies the same validation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "capture/Capture.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::bench;
using namespace proteus::gpu;

namespace {

constexpr uint32_t N = 256; // elements / threads per launch

/// scale(in, out, n, sf, si) with sf/si annotated — enough per-launch work
/// that the measured loop is dominated by kernel execution, as in a real
/// application's steady state.
std::unique_ptr<Module> buildScaleKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "capture_overhead_app");
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Type *I32 = Ctx.getI32Ty();
  Function *F = M->createFunction(
      "scale", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), I32, F64, I32},
      {"in", "out", "n", "sf", "si"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{4, 5}});
  Value *In = F->getArg(0), *Out = F->getArg(1), *Nv = F->getArg(2);
  Value *Sf = F->getArg(3), *Si = F->getArg(4);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Work = F->createBlock("work", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(ICmpPred::SLT, Gtid, Nv), Work, Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  B.setInsertPoint(Work);
  Value *V = B.createLoad(F64, B.createGep(F64, In, Gtid), "v");
  for (unsigned I = 0; I != 24; ++I)
    V = B.createFAdd(B.createFMul(V, Sf), B.createSIToFP(Si, F64));
  B.createStore(V, B.createGep(F64, Out, Gtid));
  B.createRet();
  return M;
}

/// One live runtime running the warm-cache launch loop, in one capture
/// configuration. The capture-off and capture-on rigs stay alive side by
/// side so their timed repetitions can interleave: host drift then lands
/// on both sides instead of on whichever ran second.
class LoopRig {
public:
  LoopRig(const CompiledProgram &Prog, bool Capture, bool Dedup,
          const std::string &CaptureDir)
      : Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22),
        Jit(Dev, Prog.ModuleId, config(Capture, Dedup, CaptureDir)),
        LP(Dev, Prog, &Jit) {
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: program load failed: %s\n",
                   LP.error().c_str());
      std::exit(1);
    }
    DevicePtr In = 0, Out = 0;
    gpuMalloc(Dev, &In, N * 8);
    gpuMalloc(Dev, &Out, N * 8);
    std::vector<double> H(N, 1.25);
    gpuMemcpyHtoD(Dev, In, H.data(), N * 8);
    Args = {{In}, {Out}, {N}, {sem::boxF64(1.0009765625)}, {uint64_t(3)}};
    launchOnce(); // compile + load once; everything after is the warm path
    Jit.drain();
  }

  /// Times one repetition of \p Launches launches and returns its
  /// seconds. With capture on, the runtime drains afterwards so the ring
  /// starts each timed loop empty — steady state with a writer that keeps
  /// up.
  double timeRep(unsigned Launches) {
    Timer T;
    for (unsigned L = 0; L != Launches; ++L)
      launchOnce();
    double Seconds = T.seconds();
    BestSeconds = std::min(BestSeconds, Seconds);
    Jit.drain(); // writer catches up off the clock
    return Seconds;
  }

  uint64_t counter(const std::string &Name) const {
    for (const auto &[K, V] : Jit.metricsRegistry().counterValues())
      if (K == Name)
        return V;
    return 0;
  }

  double BestSeconds = 1e30; // minimum over repetitions

private:
  static JitConfig config(bool Capture, bool Dedup,
                          const std::string &CaptureDir) {
    JitConfig JC;
    JC.UsePersistentCache = false;
    JC.Capture = Capture;
    JC.CaptureDir = CaptureDir;
    JC.CaptureRing = 1024;
    JC.CaptureDedup = Dedup;
    return JC;
  }

  void launchOnce() {
    std::string Error;
    if (LP.launch("scale", Dim3{1, 1, 1}, Dim3{N, 1, 1}, Args, &Error) !=
        GpuError::Success) {
      std::fprintf(stderr, "FATAL: launch failed: %s\n", Error.c_str());
      std::exit(1);
    }
  }

  Device Dev;
  JitRuntime Jit;
  LoadedProgram LP;
  std::vector<KernelArg> Args;
};

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  const unsigned Launches = Smoke ? 64 : 512; // <= ring: shedding impossible
  // Odd, and enough paired repetitions that their median stays put when a
  // busy host preempts a few of them (3 pairs did not: EXPERIMENTS
  // "Capture overhead gate").
  const unsigned Reps = 15;

  Context Ctx;
  std::unique_ptr<Module> M = buildScaleKernel(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  std::string CaptureDir = fs::makeTempDirectory("proteus-capture-bench");

  struct LoopResult {
    double BestSeconds;
    uint64_t Drops, Dedup, Artifacts;
  };
  auto result = [](const LoopRig &R) {
    return LoopResult{R.BestSeconds, R.counter("capture.drops"),
                      R.counter("capture.dedup"),
                      R.counter("capture.artifacts")};
  };
  LoopResult Off, On, All;
  // Per repetition, capture-on seconds over capture-off seconds.
  std::vector<double> Ratios;
  {
    // The gated pair alternates repetitions, each rep's order flipped.
    LoopRig OffRig(Prog, false, true, CaptureDir);
    LoopRig OnRig(Prog, true, true, CaptureDir);
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      double OffSeconds, OnSeconds;
      if (Rep % 2) {
        OnSeconds = OnRig.timeRep(Launches);
        OffSeconds = OffRig.timeRep(Launches);
      } else {
        OffSeconds = OffRig.timeRep(Launches);
        OnSeconds = OnRig.timeRep(Launches);
      }
      Ratios.push_back(OnSeconds / OffSeconds);
    }
    Off = result(OffRig);
    On = result(OnRig);
  }
  {
    LoopRig AllRig(Prog, true, false, CaptureDir);
    for (unsigned Rep = 0; Rep != Reps; ++Rep)
      AllRig.timeRep(Launches);
    All = result(AllRig);
  }
  fs::removeTree(CaptureDir);

  double PerLaunchOffUs = Off.BestSeconds / Launches * 1e6;
  double PerLaunchOnUs = On.BestSeconds / Launches * 1e6;
  double PerLaunchAllUs = All.BestSeconds / Launches * 1e6;
  std::sort(Ratios.begin(), Ratios.end());
  double OverheadPct = (Ratios[Reps / 2] - 1.0) * 100.0; // Reps is odd
  double AllOverheadPct =
      (All.BestSeconds - Off.BestSeconds) / Off.BestSeconds * 100.0;

  std::printf("capture_overhead: %u launches x %u reps (best rep; on/off "
              "overhead: median of paired reps)\n",
              Launches, Reps);
  std::printf("  capture off        %8.2f us/launch\n", PerLaunchOffUs);
  std::printf("  capture on (dedup) %8.2f us/launch  (%+.2f%%, %llu artifacts, "
              "%llu dedup skips, %llu drops)\n",
              PerLaunchOnUs, OverheadPct,
              static_cast<unsigned long long>(On.Artifacts),
              static_cast<unsigned long long>(On.Dedup),
              static_cast<unsigned long long>(On.Drops));
  std::printf("  capture all        %8.2f us/launch  (%+.2f%%, %llu artifacts, "
              "%llu drops; stress mode, ungated)\n",
              PerLaunchAllUs, AllOverheadPct,
              static_cast<unsigned long long>(All.Artifacts),
              static_cast<unsigned long long>(All.Drops));

  JsonReporter Report("capture");
  Report.beginRow("steady_state")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .metric("launches", Launches)
      .metric("reps", Reps)
      .metric("off_us_per_launch", PerLaunchOffUs)
      .metric("on_us_per_launch", PerLaunchOnUs)
      .metric("overhead_pct", OverheadPct)
      .metric("drops", static_cast<double>(On.Drops))
      .metric("dedup_skips", static_cast<double>(On.Dedup))
      .metric("artifacts", static_cast<double>(On.Artifacts));
  Report.beginRow("capture_all")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .metric("launches", Launches)
      .metric("reps", Reps)
      .metric("on_us_per_launch", PerLaunchAllUs)
      .metric("overhead_pct", AllOverheadPct)
      .metric("drops", static_cast<double>(All.Drops))
      .metric("artifacts", static_cast<double>(All.Artifacts));
  std::string Error;
  if (!Report.write("BENCH_capture.json", &Error)) {
    std::fprintf(stderr, "FATAL: %s\n", Error.c_str());
    return 1;
  }

  int Status = 0;
  if (On.Drops != 0 || All.Drops != 0) {
    std::fprintf(stderr,
                 "FAIL: capture shed launches at steady state "
                 "(ring 1024, %u in flight max; dedup %llu drops, "
                 "all %llu drops)\n",
                 Launches, static_cast<unsigned long long>(On.Drops),
                 static_cast<unsigned long long>(All.Drops));
    Status = 1;
  }
  // The dedup loop re-launches one shape: exactly the priming launch's
  // artifact, every timed launch a dedup skip. This is the deterministic
  // form of the overhead ceiling below: a capture path that snapshots
  // launches it has already recorded fails here on any host.
  const uint64_t TimedLaunches = uint64_t(Launches) * Reps;
  if (On.Artifacts != 1 || On.Dedup != TimedLaunches || All.Artifacts == 0) {
    std::fprintf(stderr,
                 "FAIL: unexpected capture counts (dedup: %llu artifacts, "
                 "want 1, %llu dedup skips, want %llu; all: %llu artifacts, "
                 "want > 0)\n",
                 static_cast<unsigned long long>(On.Artifacts),
                 static_cast<unsigned long long>(On.Dedup),
                 static_cast<unsigned long long>(TimedLaunches),
                 static_cast<unsigned long long>(All.Artifacts));
    Status = 1;
  }
  // The acceptance floor, on the default (dedup) mode. The smoke batch is
  // small enough that a single scheduler hiccup can dominate a 5% band, so
  // it gets headroom while still catching a capture path that turned from
  // a hash probe into per-launch snapshot work.
  double Ceiling = Smoke ? 50.0 : 5.0;
  if (OverheadPct > Ceiling) {
    std::fprintf(stderr, "FAIL: capture-on overhead %.2f%% exceeds %.1f%%\n",
                 OverheadPct, Ceiling);
    Status = 1;
  }
  return Status;
}
