//===- Scheduler.cpp - heterogeneous placement scheduler ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sched/Scheduler.h"

#include "support/Env.h"

#include <limits>

using namespace proteus;
using namespace proteus::sched;

const char *proteus::sched::schedModeName(SchedMode M) {
  return env::spellings(env::Knob::Sched)[static_cast<size_t>(M)].c_str();
}

SchedConfig SchedConfig::fromEnvironment(std::vector<std::string> *Warnings) {
  SchedConfig C;
  env::read(env::Knob::Sched, C.Mode, Warnings);
  return C;
}

Scheduler::Scheduler(JitRuntime &Jit, SchedConfig Config)
    : Jit(Jit), Config(Config) {
  for (unsigned D = 0; D != Jit.numDevices(); ++D)
    PlacementCounters.push_back(
        &Reg.counter("sched.placements.dev" + std::to_string(D)));
  NextStream.resize(Jit.numDevices(), 0);
}

void Scheduler::noteKernelProfile(
    const std::string &Symbol, const pir::analysis::KernelStaticProfile &P) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Profiles[Symbol] = P;
}

namespace {

/// Predicted kernel seconds for one profile on one target: the grid's total
/// FLOPs over the roofline-attainable rate, falling back to pure bandwidth
/// time for a kernel that moves bytes without computing. Deterministic and
/// cheap — a ranking heuristic, not a simulation.
double predictForTarget(const pir::analysis::KernelStaticProfile &P,
                        const TargetInfo &T, uint64_t TotalThreads) {
  pir::analysis::RooflineReport R =
      pir::analysis::classifyProfile(P, T, nullptr, TotalThreads);
  double Threads = static_cast<double>(TotalThreads ? TotalThreads : 1);
  if (P.Flops > 0 && R.AttainableGFlops > 0)
    return P.Flops * Threads / (R.AttainableGFlops * 1e9);
  double Bytes = P.bytesMoved(T.WaveSize) * Threads;
  if (Bytes > 0 && R.Model.PeakBandwidthGBs > 0)
    return Bytes / (R.Model.PeakBandwidthGBs * 1e9);
  return 0.0;
}

} // namespace

double Scheduler::predictedSeconds(const std::string &Symbol, unsigned Device,
                                   gpu::Dim3 Grid, gpu::Dim3 Block) const {
  pir::analysis::KernelStaticProfile P;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Profiles.find(Symbol);
    if (It == Profiles.end())
      return -1.0;
    P = It->second;
  }
  return predictForTarget(P, Jit.device(Device).target(),
                          Grid.count() * Block.count());
}

Placement Scheduler::place(const std::string &Symbol, gpu::Dim3 Grid,
                           gpu::Dim3 Block) {
  const unsigned N = Jit.numDevices();
  std::lock_guard<std::mutex> Lock(Mutex);
  // Devices attached after construction get their cursor and counter here.
  while (PlacementCounters.size() < N)
    PlacementCounters.push_back(&Reg.counter(
        "sched.placements.dev" + std::to_string(PlacementCounters.size())));
  if (NextStream.size() < N)
    NextStream.resize(N, 0);

  if (Config.Mode == SchedMode::Off || N == 1) {
    // Off pins to the primary device's default stream — indistinguishable
    // from launchKernel, which is the compatibility contract.
    PlacementCounters[0]->add();
    return Placement{0, nullptr};
  }

  unsigned Chosen = 0;
  if (Config.Mode == SchedMode::Static) {
    Chosen = static_cast<unsigned>(NextDevice++ % N);
  } else {
    pir::analysis::KernelStaticProfile P;
    bool HaveProfile = false;
    if (Config.Mode == SchedMode::Perf) {
      auto PIt = Profiles.find(Symbol);
      if (PIt != Profiles.end()) {
        P = PIt->second;
        HaveProfile = true;
      }
    }
    double Best = std::numeric_limits<double>::infinity();
    for (unsigned D = 0; D != N; ++D) {
      double Score = static_cast<double>(Jit.device(D).loadGaugeNs()) * 1e-9;
      if (HaveProfile)
        Score += predictForTarget(P, Jit.device(D).target(),
                                  Grid.count() * Block.count());
      if (Score < Best) {
        Best = Score;
        Chosen = D;
      }
    }
  }

  gpu::Device &Dev = Jit.device(Chosen);
  gpu::Stream *S =
      Dev.stream(static_cast<unsigned>(NextStream[Chosen]++ % Dev.numStreams()));
  PlacementCounters[Chosen]->add();
  return Placement{Chosen, S};
}

gpu::GpuError Scheduler::launch(
    const std::string &Symbol, gpu::Dim3 Grid, gpu::Dim3 Block,
    const std::function<std::vector<gpu::KernelArg>(unsigned)> &ArgsFor,
    std::string *Error, unsigned *PlacedOn) {
  Placement P = place(Symbol, Grid, Block);
  if (PlacedOn)
    *PlacedOn = P.DeviceIndex;
  return Jit.launchKernelOn(P.DeviceIndex, Symbol, Grid, Block,
                            ArgsFor(P.DeviceIndex), P.S, Error);
}
