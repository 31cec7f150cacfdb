//===- WarmLaunch.cpp - warm launches of a near-empty jit kernel ----------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// touch(out, c) stores its jit-annotated argument c to out[threadIdx.x],
// launched as 1 block x 32 threads over 8 specializations that are compiled
// and loaded in set-up. Only launch bookkeeping (registry lookup, key
// build, hash memo, loaded-kernel lookup) and launch setup run, so no
// compile metric can move here. Every launch's output is checked. The
// single-thread latency is an end-to-end metric; the multi-threaded pool
// windows and the scaling table run only in the traced run, as per-layer
// metrics.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "ir/IRBuilder.h"

#include <atomic>
#include <cstring>
#include <thread>

using namespace proteus;

namespace perfbench {
namespace {

constexpr uint32_t Threads = 32;
constexpr unsigned Specs = 8;
constexpr unsigned PoolDevices = 4;
constexpr uint64_t DeviceBytes = 1ull << 20;
constexpr double MinWindowSeconds = 0.1;
constexpr size_t MinWindows = 5;

std::unique_ptr<pir::Module> buildTouchModule(pir::Context &Ctx) {
  auto M = std::make_unique<pir::Module>(Ctx, "perfbench_touch");
  pir::IRBuilder B(Ctx);
  pir::Function *F = M->createFunction(
      "touch", Ctx.getVoidTy(), {Ctx.getPtrTy(), Ctx.getI32Ty()},
      {"out", "c"}, pir::FunctionKind::Kernel);
  F->setJitAnnotation(pir::JitAnnotation{{2}});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  pir::Value *Tid = B.createThreadIdx(0, "tid");
  B.createStore(F->getArg(1), B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid));
  B.createRet();
  return M;
}

bool holds(gpu::Device &Dev, gpu::DevicePtr Out, uint32_t C) {
  const uint8_t *P = Dev.memory().data() + Out;
  for (uint32_t I = 0; I != Threads; ++I) {
    uint32_t V;
    std::memcpy(&V, P + 4 * I, 4);
    if (V != C)
      return false;
  }
  return true;
}

/// One launching thread's state in a multi-threaded window.
struct Lane {
  unsigned Device = 0;
  gpu::DevicePtr Out = 0;
  uint64_t Launches = 0, Failures = 0;
  std::vector<double> LatencyUs;
};

class WarmLaunchPhase final : public Phase {
public:
  explicit WarmLaunchPhase(const RunOptions &O)
      : O(O), Pick(O.Seed ^ 0x31543144ULL) {}


  bool prepareReferences(ReferenceStore &, std::string &) override {
    return true;
  }

  bool setup(std::string &Error) override {
    M = buildTouchModule(Ctx);
    AotOptions AO;
    AO.EnableProteusExtensions = true;
    Prog = aotCompile(*M, AO);
    Rng R(O.Seed ^ 0x5741524dULL);
    for (unsigned I = 0; I != Specs; ++I)
      Values[I] = static_cast<uint32_t>(R.next()) | 1u;

    JitConfig Cfg;
    Cfg.UsePersistentCache = false;
    Single = std::make_unique<gpu::Device>(getAmdGcnSimTarget(), DeviceBytes);
    SingleJit = std::make_unique<JitRuntime>(*Single, Prog.ModuleId, Cfg);
    SingleLP = std::make_unique<LoadedProgram>(*Single, Prog, SingleJit.get());
    for (auto &D : Pool)
      D = std::make_unique<gpu::Device>(getAmdGcnSimTarget(), DeviceBytes);
    PoolJit = std::make_unique<JitRuntime>(*Pool[0], Prog.ModuleId, Cfg);
    for (unsigned I = 1; I != PoolDevices; ++I)
      PoolJit->attachDevice(*Pool[I]);
    PoolLP = std::make_unique<LoadedProgram>(*Pool[0], Prog, PoolJit.get());
    if (!SingleLP->ok() || !PoolLP->ok()) {
      Error = "warm_launch: program load failed";
      return false;
    }
    // One output buffer per possible lane on every device, plus the
    // single-thread buffer; compile and load every specialization.
    gpu::gpuMalloc(*Single, &SingleOut, Threads * 4);
    for (unsigned L = 0; L != 4; ++L)
      gpu::gpuMalloc(*Single, &SingleLaneOut[L], Threads * 4);
    for (unsigned D = 0; D != PoolDevices; ++D)
      for (unsigned L = 0; L != 4; ++L)
        gpu::gpuMalloc(*Pool[D], &PoolOut[D][L], Threads * 4);
    for (unsigned S = 0; S != Specs; ++S) {
      if (SingleLP->launch("touch", gpu::Dim3{1, 1, 1}, gpu::Dim3{Threads, 1, 1},
                           {{SingleOut}, {Values[S]}}) !=
          gpu::GpuError::Success) {
        Error = "warm_launch: warm-up launch failed";
        return false;
      }
      for (unsigned D = 0; D != PoolDevices; ++D)
        if (PoolJit->launchKernelOn(D, "touch", gpu::Dim3{1, 1, 1},
                                    gpu::Dim3{Threads, 1, 1},
                                    {{PoolOut[D][0]}, {Values[S]}}) !=
            gpu::GpuError::Success) {
          Error = "warm_launch: warm-up launch failed";
          return false;
        }
    }
    // The direct-launch baseline runs the same specialized object the JIT
    // serves for Values[0], loaded once by hand.
    SpecializationKey Key;
    Key.ModuleId = Prog.ModuleId;
    Key.KernelSymbol = "touch";
    Key.FoldedArgs = {{1, Values[0]}};
    Key.LaunchBoundsThreads = Threads;
    std::optional<std::vector<uint8_t>> Object =
        SingleJit->cache().lookup(computeSpecializationHash(Key));
    if (!Object || gpu::gpuModuleLoad(*Single, &Direct, *Object) !=
                       gpu::GpuError::Success) {
      Error = "warm_launch: direct module load failed";
      return false;
    }
    return true;
  }

  bool step(double, double Budget, Report &Rep, Tracer *T) override {
    // A single-thread stretch (per-launch latency, 1 thread x 1 device),
    // then, traced, a pool window (aggregate throughput, nproc threads x 4
    // devices).
    uint64_t Bad = 0, Before = SingleUs.size();
    Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < 0.4 * Budget) {
      for (int K = 0; K != 64; ++K) {
        uint32_t C = Values[Pick.below(Specs)];
        std::string Err;
        Clock::time_point L0 = Clock::now();
        gpu::GpuError E;
        {
          ScopedSpan Sp(T, "jit.launch", SingleUs.size());
          E = SingleLP->launch("touch", gpu::Dim3{1, 1, 1},
                               gpu::Dim3{Threads, 1, 1}, {{SingleOut}, {C}},
                               &Err);
        }
        SingleUs.push_back(secondsSince(L0) * 1e6);
        if (E != gpu::GpuError::Success || !holds(*Single, SingleOut, C)) {
          Rep.operation("warm.single", false, "warm launch: " + Err);
          ++Bad;
        }
      }
    }
    Rep.operations("warm.single", SingleUs.size() - Before - Bad);
    if (!T)
      return true;

    // Pool windows shorter than MinWindowSeconds would mostly measure
    // thread start-up, so slices bank their pool time until one is due.
    PoolCredit += 0.6 * Budget;
    if (PoolCredit >= MinWindowSeconds) {
      poolWindow(PoolCredit, Rep, T);
      PoolCredit = 0;
    }
    return true;
  }

  void finish(Report &Rep, Tracer *T) override {
    if (!T)
      return;
    while (Throughputs.size() < MinWindows)
      poolWindow(MinWindowSeconds, Rep, T);
    // The scaling table and the direct-launch baseline.
    Scaling.clear();
    for (unsigned Dev : {1u, PoolDevices})
      for (unsigned Th : {1u, 2u, 4u}) {
        std::vector<Lane> Lanes =
            window(std::min(Th, O.Threads), Dev, 0.15, T, Dev == 1);
        std::vector<double> All;
        uint64_t Total = 0;
        for (Lane &L : Lanes) {
          All.insert(All.end(), L.LatencyUs.begin(), L.LatencyUs.end());
          Total += L.Launches;
          for (uint64_t F = 0; F != L.Failures; ++F)
            Rep.operation("warm.scaling", false, "output check failed");
          Rep.operations("warm.scaling", L.Launches - L.Failures);
        }
        Scaling.push_back({Th, Dev, median(All),
                           static_cast<double>(Total) / LastWindowSeconds});
      }
    DirectUs.clear();
    for (int K = 0; K != 20000; ++K) {
      uint32_t C = Values[0];
      Clock::time_point L0 = Clock::now();
      gpu::GpuError E;
      {
        ScopedSpan Sp(T, "gpu.launch_direct", K);
        E = gpu::gpuLaunchKernel(*Single, *Direct, gpu::Dim3{1, 1, 1},
                                 gpu::Dim3{Threads, 1, 1},
                                 {{SingleOut}, {C}});
      }
      DirectUs.push_back(secondsSince(L0) * 1e6);
      Rep.operation("warm.direct",
                    E == gpu::GpuError::Success && holds(*Single, SingleOut, C),
                    "output check failed");
    }
  }

  void report(Report &Rep, Tracer *T) override {
    // The host's interference comes and goes in stretches of 0.1-2 s and
    // makes single launches bimodal; their 5th percentile describes the
    // launch path when it is not disturbed. Window throughputs are not
    // bimodal, so they report the median.
    Rep.hostTime("warm_launch_us", percentile(SingleUs, 5), "us");
    Rep.row(format("{\"phase\": \"warm_launch\", \"single_launches\": %zu, "
                   "\"p5_us\": %.3f, \"p50_us\": %.3f, \"p90_us\": %.3f}",
                   SingleUs.size(), percentile(SingleUs, 5), median(SingleUs),
                   percentile(SingleUs, 90)));
    if (!T)
      return;
    Rep.perLayer("jit.warm_launches_per_s", median(Throughputs), "1/s");
    Rep.row(format("{\"phase\": \"warm_launch\", \"pool_threads\": %u, "
                   "\"pool_devices\": %u, \"windows\": %zu, "
                   "\"launches_per_s_p90\": %.0f, \"launches_per_s_p50\": %.0f}",
                   O.Threads, PoolDevices, Throughputs.size(),
                   percentile(Throughputs, 90), median(Throughputs)));
    double Direct = median(DirectUs);
    Rep.perLayer("gpu.empty_launch_us", Direct, "us");
    for (const ScalingRow &S : Scaling) {
      Rep.perLayer(format("jit.warm_launch_us.t%u.d%u", S.Threads, S.Devices),
                   S.MedianUs, "us");
      Rep.row(format("{\"phase\": \"warm_launch\", \"scaling\": "
                     "{\"threads\": %u, \"threads_run\": %u, \"devices\": %u, "
                     "\"p50_us\": %.3f, \"launches_per_s\": %.0f, "
                     "\"direct_p50_us\": %.3f}}",
                     S.Threads, std::min(S.Threads, O.Threads), S.Devices,
                     S.MedianUs, S.PerSecond, Direct));
      if (S.Threads == 1 && S.Devices == 1)
        Rep.perLayer("jit.warm_overhead_us", S.MedianUs - Direct, "us");
    }
  }

private:
  struct ScalingRow {
    unsigned Threads, Devices;
    double MedianUs, PerSecond;
  };

  /// One pool window: nproc threads x 4 devices for \p Seconds.
  void poolWindow(double Seconds, Report &Rep, Tracer *T) {
    std::vector<Lane> Lanes =
        window(O.Threads, PoolDevices, Seconds, T, false);
    uint64_t Total = 0;
    for (Lane &L : Lanes) {
      Total += L.Launches;
      for (uint64_t F = 0; F != L.Failures; ++F)
        Rep.operation("warm.pool", false, "output check failed");
      Rep.operations("warm.pool", L.Launches - L.Failures);
    }
    Throughputs.push_back(static_cast<double>(Total) / LastWindowSeconds);
  }

  /// Runs \p NThreads launching threads for \p Seconds; lane I launches on
  /// device I % \p NDevices. \p SingleRuntime selects the one-device
  /// runtime (only meaningful with one device).
  std::vector<Lane> window(unsigned NThreads, unsigned NDevices,
                           double Seconds, Tracer *T, bool SingleRuntime) {
    std::vector<Lane> Lanes(NThreads);
    std::atomic<bool> Go{false};
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Workers;
    for (unsigned I = 0; I != NThreads; ++I) {
      Lane &L = Lanes[I];
      L.Device = I % NDevices;
      L.Out = SingleRuntime ? SingleLaneOut[I % 4] : PoolOut[L.Device][I / NDevices % 4];
      Workers.emplace_back([&, I] {
        Rng R(O.Seed * 977 + I);
        gpu::Device &Dev = SingleRuntime ? *Single : *Pool[L.Device];
        ++Ready;
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        Clock::time_point End =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(Seconds));
        while (Clock::now() < End) {
          for (int K = 0; K != 32; ++K) {
            uint32_t C = Values[R.below(Specs)];
            Clock::time_point L0 = Clock::now();
            gpu::GpuError E;
            {
              ScopedSpan Sp(T, "jit.launch", L.Launches);
              E = SingleRuntime
                      ? SingleJit->launchKernel("touch", gpu::Dim3{1, 1, 1},
                                                gpu::Dim3{Threads, 1, 1},
                                                {{L.Out}, {C}})
                      : PoolJit->launchKernelOn(L.Device, "touch",
                                                gpu::Dim3{1, 1, 1},
                                                gpu::Dim3{Threads, 1, 1},
                                                {{L.Out}, {C}});
            }
            if (T)
              L.LatencyUs.push_back(secondsSince(L0) * 1e6);
            ++L.Launches;
            if (E != gpu::GpuError::Success || !holds(Dev, L.Out, C))
              ++L.Failures;
          }
        }
      });
    }
    while (Ready.load() != NThreads)
      std::this_thread::yield();
    Clock::time_point W0 = Clock::now();
    Go.store(true, std::memory_order_release);
    for (std::thread &W : Workers)
      W.join();
    LastWindowSeconds = secondsSince(W0);
    return Lanes;
  }

  RunOptions O;
  Rng Pick; ///< which specialization each single-thread launch uses
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M;
  CompiledProgram Prog;
  uint32_t Values[Specs] = {};
  std::unique_ptr<gpu::Device> Single;
  std::unique_ptr<JitRuntime> SingleJit;
  std::unique_ptr<LoadedProgram> SingleLP;
  std::unique_ptr<gpu::Device> Pool[PoolDevices];
  std::unique_ptr<JitRuntime> PoolJit;
  std::unique_ptr<LoadedProgram> PoolLP;
  gpu::DevicePtr SingleOut = 0;
  gpu::DevicePtr SingleLaneOut[4] = {};
  gpu::DevicePtr PoolOut[PoolDevices][4] = {};
  gpu::LoadedKernel *Direct = nullptr;
  std::vector<double> SingleUs, Throughputs, DirectUs;
  std::vector<ScalingRow> Scaling;
  double PoolCredit = 0;
  double LastWindowSeconds = 1;
};

} // namespace

std::unique_ptr<Phase> makeWarmLaunchPhase(const RunOptions &O) {
  return std::make_unique<WarmLaunchPhase>(O);
}

} // namespace perfbench
