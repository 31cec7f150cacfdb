//===- multistream_throughput.cpp - streams x devices scaling sweep ---------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the per-stream timeline model buys: a fixed batch of
// independent kernel launches is spread over a (streams x devices) grid,
// and the simulated makespan must shrink while the aggregate busy time
// stays constant. The sweep runs 1..4 streams on one device, 1..4
// single-stream devices, and combined grids, all through the JIT runtime's
// launchKernelOn path so the per-arch code cache (compile once, load on
// every device) is on the measured path.
//
// Emits the self-validated BENCH_multistream.json and exits non-zero when
// the acceptance floor is missed: >= 3x simulated-throughput scaling from
// 1 to 4 independent streams and from 1 to 4 devices. `--smoke` reduces
// the batch for the ctest wiring (bench_smoke_multistream) and applies the
// same validation.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gpu/DeviceManager.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"

#include <memory>
#include <vector>

using namespace pir;
using namespace proteus;
using namespace proteus::bench;
using namespace proteus::gpu;

namespace {

constexpr uint32_t N = 256; // elements per buffer

/// scale(in: ptr, out: ptr, n: i32, sf: f64, si: i32), sf/si annotated:
/// out[i] = in[i] * sf + si over a short counted loop, enough simulated
/// work per launch for the timelines to be meaningfully long.
std::unique_ptr<Module> buildScaleKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "multistream_app");
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

/// One measured configuration: a pool of \p Devs same-arch devices with
/// \p StreamsPer streams each, served by one JitRuntime.
struct Pool {
  DeviceManager Mgr;
  JitRuntime Jit;
  std::vector<std::unique_ptr<LoadedProgram>> LPs;
  std::vector<DevicePtr> Ins, Outs;

  Pool(const CompiledProgram &Prog, unsigned Devs, unsigned StreamsPer)
      : Mgr(makeConfig(Devs, StreamsPer)),
        Jit(Mgr.device(0), Prog.ModuleId, makeJitConfig()) {
    for (unsigned D = 0; D != Devs; ++D) {
      LPs.emplace_back(new LoadedProgram(Mgr.device(D), Prog, &Jit));
      if (!LPs.back()->ok()) {
        std::fprintf(stderr, "FATAL: program load failed on device %u: %s\n",
                     D, LPs.back()->error().c_str());
        std::exit(1);
      }
    }
    std::vector<double> H(N, 1.5);
    Ins.resize(Devs);
    Outs.resize(Devs);
    for (unsigned D = 0; D != Devs; ++D) {
      gpuMalloc(Mgr.device(D), &Ins[D], N * 8);
      gpuMalloc(Mgr.device(D), &Outs[D], N * 8);
      gpuMemcpyHtoD(Mgr.device(D), Ins[D], H.data(), N * 8);
    }
  }

  static DeviceManager::Config makeConfig(unsigned Devs,
                                          unsigned StreamsPer) {
    DeviceManager::Config C;
    C.NumDevices = Devs;
    C.StreamsPerDevice = StreamsPer;
    C.MemoryBytesPerDevice = 1ull << 22;
    return C;
  }

  static JitConfig makeJitConfig() {
    JitConfig JC;
    JC.UsePersistentCache = false;
    return JC;
  }

  void launchOn(unsigned D, Stream *S) {
    std::vector<KernelArg> Args = {
        {Ins[D]}, {Outs[D]}, {N}, {sem::boxF64(1.25)}, {7}};
    std::string Err;
    if (Jit.launchKernelOn(D, "scale", Dim3{4, 1, 1}, Dim3{64, 1, 1}, Args,
                           S, &Err) != GpuError::Success) {
      std::fprintf(stderr, "FATAL: launch failed on device %u: %s\n", D,
                   Err.c_str());
      std::exit(1);
    }
  }
};

struct SweepResult {
  double MakespanSec = 0;
  double BusySec = 0;
  uint64_t PerArchReuse = 0;
};

/// Runs \p Launches identical kernels round-robin over the (device,
/// stream) grid and reports the pool makespan and aggregate busy time.
/// Warm-up launches (one per device) pay the JIT compile, the per-device
/// module load, and the perf model's first-touch effects; the measured
/// batch then runs on clean timelines.
SweepResult runConfig(const CompiledProgram &Prog, unsigned Devs,
                      unsigned StreamsPer, unsigned Launches) {
  Pool P(Prog, Devs, StreamsPer);
  for (unsigned D = 0; D != Devs; ++D)
    P.launchOn(D, nullptr);
  for (unsigned D = 0; D != Devs; ++D)
    P.Mgr.device(D).resetSimulatedTime();

  for (unsigned I = 0; I != Launches; ++I) {
    unsigned D = I % Devs;
    Stream *S = P.Mgr.device(D).stream((I / Devs) % StreamsPer);
    P.launchOn(D, S);
  }

  SweepResult R;
  R.MakespanSec = P.Mgr.makespanSeconds();
  R.BusySec = P.Mgr.totalSimulatedSeconds();
  R.PerArchReuse = P.Jit.stats().PerArchCompileReuse;
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--smoke")
      Smoke = true;

  Context Ctx;
  std::unique_ptr<Module> M = buildScaleKernel(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  // 48 divides evenly into every lane count in the sweep, so scaling is
  // not distorted by remainder launches.
  const unsigned Launches = Smoke ? 16 : 48;
  struct Cfg {
    unsigned Devs, Streams;
  };
  const std::vector<Cfg> Sweep = {{1, 1}, {1, 2}, {1, 4}, {2, 1},
                                  {4, 1}, {2, 2}, {4, 4}};

  std::printf("=== Multi-stream / multi-device simulated throughput"
              " (%u launches, amdgcn-sim) ===\n\n",
              Launches);
  const std::vector<int> Widths = {10, 10, 16, 16, 12, 12};
  printRow({"devices", "streams", "makespan (us)", "busy (us)", "scaling",
            "reuse"},
           Widths);

  JsonReporter Rep("multistream");
  double Serial = 0;
  double Scaling4Streams = 0, Scaling4Devices = 0;
  for (const Cfg &C : Sweep) {
    SweepResult R = runConfig(Prog, C.Devs, C.Streams, Launches);
    if (C.Devs == 1 && C.Streams == 1)
      Serial = R.MakespanSec;
    double Scaling = R.MakespanSec > 0 ? Serial / R.MakespanSec : 0;
    if (C.Devs == 1 && C.Streams == 4)
      Scaling4Streams = Scaling;
    if (C.Devs == 4 && C.Streams == 1)
      Scaling4Devices = Scaling;
    printRow({formatString("%u", C.Devs), formatString("%u", C.Streams),
              formatString("%.3f", R.MakespanSec * 1e6),
              formatString("%.3f", R.BusySec * 1e6),
              formatString("%.2fx", Scaling),
              formatString("%llu", (unsigned long long)R.PerArchReuse)},
             Widths);
    Rep.beginRow("sweep")
        .label("devices", formatString("%u", C.Devs))
        .label("streams", formatString("%u", C.Streams))
        .metric("makespan_seconds", R.MakespanSec)
        .metric("busy_seconds", R.BusySec)
        .metric("scaling_vs_serial", Scaling)
        .metric("launches", Launches)
        .metric("per_arch_compile_reuse",
                static_cast<double>(R.PerArchReuse));
  }

  bool Ok = Scaling4Streams >= 3.0 && Scaling4Devices >= 3.0;
  Rep.beginRow("summary")
      .metric("scaling_4_streams", Scaling4Streams)
      .metric("scaling_4_devices", Scaling4Devices)
      .metric("acceptance_floor", 3.0)
      .metric("passed", Ok ? 1.0 : 0.0);

  std::string Err;
  if (!Rep.write("BENCH_multistream.json", &Err)) {
    std::fprintf(stderr, "FATAL: %s\n", Err.c_str());
    return 1;
  }

  std::printf("\n1 -> 4 streams: %.2fx, 1 -> 4 devices: %.2fx"
              " (floor 3.00x): %s -> BENCH_multistream.json\n",
              Scaling4Streams, Scaling4Devices, Ok ? "OK" : "MISSED");
  return Ok ? 0 : 1;
}
