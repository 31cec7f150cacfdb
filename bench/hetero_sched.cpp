//===- hetero_sched.cpp - heterogeneous scheduler placement bench ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what placement-aware scheduling buys on a mixed-arch pool under
// imbalanced load: a 4-device pool (2x amdgcn-sim + 2x nvptx-sim) where the
// two amd devices start with a deep backlog of queued background work. A
// fixed batch of independent kernels is then launched through each
// PROTEUS_SCHED mode:
//
//   off    — everything pins to device 0 (compatibility baseline; checked
//            byte-identical to direct launchKernelOn calls);
//   static — round-robin, blind to the backlog: a quarter of the batch
//            queues behind each busy device;
//   load   — emptiest-queue-first over the lock-free load gauges: the idle
//            devices absorb the batch until the pool equalizes;
//   perf   — load plus the roofline model's predicted kernel seconds per
//            arch, so placements also account for how fast each device
//            *runs* the kernel, not just when it starts.
//
// Acceptance: load and perf must beat static by >= 1.3x pool makespan on
// the imbalanced pool, and off must be byte-identical to today's direct
// launch path. Emits the self-validated BENCH_hetero.json; `--smoke` runs
// the same sweep and gates on a reduced batch (bench_smoke_hetero).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gpu/DeviceManager.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "sched/Scheduler.h"

#include <cstring>
#include <memory>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::bench;
using namespace proteus::gpu;
using namespace proteus::sched;

namespace {

constexpr uint32_t N = 256; // elements per buffer

/// scale(in: ptr, out: ptr, n: i32, sf: f64, si: i32), sf/si annotated:
/// out[i] = fma-chain(in[i]) — enough work per launch that the per-device
/// timelines (and with them the load gauges) move meaningfully.
std::unique_ptr<Module> buildScaleKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "hetero_app");
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

/// The measured pool: 2x amdgcn-sim + 2x nvptx-sim devices behind one
/// JitRuntime. The program image (amd, host-side bitcode) loads on device 0
/// only; the other devices are attached bare and receive per-arch code
/// through the shared cache on first launch. Buffers are allocated on every
/// device before the load so addresses are uniform across the pool.
struct HeteroPool {
  Context Ctx;
  std::unique_ptr<Module> M;
  Function *Kernel = nullptr;
  CompiledProgram Prog;
  DeviceManager Mgr;
  std::unique_ptr<JitRuntime> Jit;
  std::unique_ptr<LoadedProgram> LP;
  std::vector<DevicePtr> Ins, Outs;

  HeteroPool() : Mgr(makeConfig()) {
    M = buildScaleKernel(Ctx);
    Kernel = M->getFunction("scale");
    AotOptions AO;
    AO.Arch = GpuArch::AmdGcnSim;
    AO.EnableProteusExtensions = true;
    Prog = aotCompile(*M, AO);

    JitConfig JC;
    JC.UsePersistentCache = false;
    Jit = std::make_unique<JitRuntime>(Mgr.device(0), Prog.ModuleId, JC);
    for (unsigned D = 1; D != Mgr.numDevices(); ++D)
      Jit->attachDevice(Mgr.device(D));

    std::vector<double> H(N, 1.5);
    Ins.resize(Mgr.numDevices());
    Outs.resize(Mgr.numDevices());
    for (unsigned D = 0; D != Mgr.numDevices(); ++D) {
      gpuMalloc(Mgr.device(D), &Ins[D], N * 8);
      gpuMalloc(Mgr.device(D), &Outs[D], N * 8);
      gpuMemcpyHtoD(Mgr.device(D), Ins[D], H.data(), N * 8);
    }
    LP = std::make_unique<LoadedProgram>(Mgr.device(0), Prog, Jit.get());
    if (!LP->ok()) {
      std::fprintf(stderr, "FATAL: program load failed: %s\n",
                   LP->error().c_str());
      std::exit(1);
    }
  }

  static DeviceManager::Config makeConfig() {
    DeviceManager::Config C;
    C.NumDevices = 4;
    C.StreamsPerDevice = 2;
    C.Archs = {GpuArch::AmdGcnSim, GpuArch::AmdGcnSim, GpuArch::NvPtxSim,
               GpuArch::NvPtxSim};
    C.MemoryBytesPerDevice = 1ull << 22;
    return C;
  }

  std::vector<KernelArg> args(unsigned D) const {
    return {{Ins[D]}, {Outs[D]}, {N}, {sem::boxF64(1.25)}, {7}};
  }

  /// One warm-up launch per device pays every compile (once per arch) and
  /// every per-device module load, then the timelines reset to zero.
  void warmUp() {
    for (unsigned D = 0; D != Mgr.numDevices(); ++D) {
      std::string Err;
      if (Jit->launchKernelOn(D, "scale", Dim3{4, 1, 1}, Dim3{64, 1, 1},
                              args(D), nullptr, &Err) != GpuError::Success) {
        std::fprintf(stderr, "FATAL: warm-up launch on device %u: %s\n", D,
                     Err.c_str());
        std::exit(1);
      }
    }
    Jit->drain();
    for (unsigned D = 0; D != Mgr.numDevices(); ++D)
      Mgr.device(D).resetSimulatedTime();
  }

  std::vector<uint8_t> readOut(unsigned D) {
    std::vector<uint8_t> Bytes(N * 8);
    gpuMemcpyDtoH(Mgr.device(D), Bytes.data(), Outs[D], N * 8);
    return Bytes;
  }
};

struct ModeResult {
  double MakespanSec = 0;
  double BusySec = 0;
  std::vector<uint64_t> Placements; // per device
};

/// Runs \p Launches batch launches through a Scheduler in \p Mode on a
/// fresh pool whose amd devices (0 and 1) start \p BusySec deep in queued
/// background work.
ModeResult runMode(SchedMode Mode, unsigned Launches, double BusySec,
                   std::vector<uint8_t> *Dev0Out = nullptr) {
  HeteroPool P;
  P.warmUp();
  if (BusySec > 0) {
    P.Mgr.device(0).defaultStream().enqueue(BusySec, "backlog");
    P.Mgr.device(1).defaultStream().enqueue(BusySec, "backlog");
  }

  SchedConfig SC;
  SC.Mode = Mode;
  Scheduler Sched(*P.Jit, SC);
  // Perf mode additionally ranks by the static roofline profile per arch.
  Sched.noteKernelProfile("scale",
                          pir::analysis::computeStaticProfile(*P.Kernel));

  for (unsigned I = 0; I != Launches; ++I) {
    std::string Err;
    if (Sched.launch(
            "scale", Dim3{4, 1, 1}, Dim3{64, 1, 1},
            [&](unsigned D) { return P.args(D); }, &Err) !=
        GpuError::Success) {
      std::fprintf(stderr, "FATAL: scheduled launch failed: %s\n",
                   Err.c_str());
      std::exit(1);
    }
  }
  P.Jit->drain();

  ModeResult R;
  R.MakespanSec = P.Mgr.makespanSeconds();
  R.BusySec = P.Mgr.totalSimulatedSeconds();
  for (unsigned D = 0; D != P.Mgr.numDevices(); ++D) {
    uint64_t V = 0;
    for (const auto &[Name, Val] : Sched.registry().counterValues())
      if (Name == "sched.placements.dev" + std::to_string(D))
        V = Val;
    R.Placements.push_back(V);
  }
  if (Dev0Out)
    *Dev0Out = P.readOut(0);
  return R;
}

/// The no-scheduler reference: the same batch through direct
/// launchKernelOn(0) calls — what every program does today.
std::vector<uint8_t> runDirect(unsigned Launches) {
  HeteroPool P;
  P.warmUp();
  for (unsigned I = 0; I != Launches; ++I) {
    std::string Err;
    if (P.Jit->launchKernelOn(0, "scale", Dim3{4, 1, 1}, Dim3{64, 1, 1},
                              P.args(0), nullptr, &Err) != GpuError::Success) {
      std::fprintf(stderr, "FATAL: direct launch failed: %s\n", Err.c_str());
      std::exit(1);
    }
  }
  P.Jit->drain();
  return P.readOut(0);
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--smoke")
      Smoke = true;

  const unsigned Launches = Smoke ? 32 : 96;

  // Calibrate the backlog to the batch itself: an unloaded static run
  // measures the batch's aggregate kernel seconds, and the two amd devices
  // then start (aggregate / 2) deep — half the pool's total work queued on
  // half the pool.
  ModeResult Probe = runMode(SchedMode::Static, Launches, 0.0);
  const double BusySec = Probe.BusySec / 2.0;

  std::printf("=== Heterogeneous scheduler on an imbalanced 2xamd + 2xnv "
              "pool (%u launches, %.1f us backlog on the amd devices) "
              "===\n\n",
              Launches, BusySec * 1e6);
  const std::vector<int> Widths = {8, 16, 16, 24, 10};
  printRow({"mode", "makespan (us)", "busy (us)", "placements d0/d1/d2/d3",
            "vs static"},
           Widths);

  JsonReporter Rep("hetero");
  const SchedMode Modes[] = {SchedMode::Off, SchedMode::Static,
                             SchedMode::Load, SchedMode::Perf};
  double StaticMakespan = 0, LoadSpeedup = 0, PerfSpeedup = 0;
  std::vector<uint8_t> OffOut;
  for (SchedMode Mode : Modes) {
    ModeResult R = runMode(Mode, Launches, BusySec,
                           Mode == SchedMode::Off ? &OffOut : nullptr);
    if (Mode == SchedMode::Static)
      StaticMakespan = R.MakespanSec;
    double Speedup =
        StaticMakespan > 0 && R.MakespanSec > 0
            ? StaticMakespan / R.MakespanSec
            : 0;
    if (Mode == SchedMode::Load)
      LoadSpeedup = Speedup;
    if (Mode == SchedMode::Perf)
      PerfSpeedup = Speedup;
    std::string Placed;
    for (unsigned D = 0; D != R.Placements.size(); ++D)
      Placed += (D ? "/" : "") + formatString("%llu", (unsigned long long)
                                                          R.Placements[D]);
    printRow({schedModeName(Mode), formatString("%.3f", R.MakespanSec * 1e6),
              formatString("%.3f", R.BusySec * 1e6), Placed,
              Mode == SchedMode::Off || Mode == SchedMode::Static
                  ? std::string("-")
                  : formatString("%.2fx", Speedup)},
             Widths);
    auto &Row = Rep.beginRow("mode")
                    .label("mode", schedModeName(Mode))
                    .metric("makespan_seconds", R.MakespanSec)
                    .metric("busy_seconds", R.BusySec)
                    .metric("launches", Launches)
                    .metric("backlog_seconds", BusySec);
    for (unsigned D = 0; D != R.Placements.size(); ++D)
      Row.metric("placements_dev" + std::to_string(D),
                 static_cast<double>(R.Placements[D]));
  }

  // Compatibility gate: off mode must be indistinguishable from the direct
  // launch path — byte for byte.
  std::vector<uint8_t> DirectOut = runDirect(Launches);
  const bool OffIdentical =
      OffOut.size() == DirectOut.size() &&
      std::memcmp(OffOut.data(), DirectOut.data(), OffOut.size()) == 0;

  const double Floor = 1.3;
  const bool Ok = OffIdentical && LoadSpeedup >= Floor && PerfSpeedup >= Floor;
  Rep.beginRow("summary")
      .metric("load_speedup_vs_static", LoadSpeedup)
      .metric("perf_speedup_vs_static", PerfSpeedup)
      .metric("acceptance_floor", Floor)
      .metric("off_byte_identical", OffIdentical ? 1.0 : 0.0)
      .metric("passed", Ok ? 1.0 : 0.0);

  std::string Err;
  if (!Rep.write("BENCH_hetero.json", &Err)) {
    std::fprintf(stderr, "FATAL: %s\n", Err.c_str());
    return 1;
  }

  std::printf("\nload %.2fx, perf %.2fx vs static (floor %.2fx), off %s"
              " -> BENCH_hetero.json\n",
              LoadSpeedup, PerfSpeedup, Floor,
              OffIdentical ? "byte-identical" : "DIVERGED");
  return Ok ? 0 : 1;
}
