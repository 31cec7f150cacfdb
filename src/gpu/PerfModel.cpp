//===- PerfModel.cpp - analytic GPU performance model ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/PerfModel.h"

#include <algorithm>
#include <cmath>

using namespace proteus;
using namespace proteus::gpu;

void proteus::gpu::applyPerfModel(const TargetInfo &Target,
                                  LaunchStats &Stats,
                                  const CostModel &Costs) {
  // --- Occupancy from register pressure -----------------------------------
  const unsigned Regs = std::max(1u, Stats.RegsUsed);
  const unsigned ResidentWaves = std::min(
      {Target.MaxWavesPerCU,
       std::max(1u, Target.RegFilePerCU / (Regs * Target.WaveSize)),
       std::max(1u, Target.MaxThreadsPerCU / Target.WaveSize)});

  // A degenerate launch that executed no instructions (an empty kernel, or
  // a body guarded off for every thread) pays only the launch latency.
  // Early-out before any of the ratio derivations below so none of them
  // can divide by a zero instruction/cycle count.
  if (Stats.TotalInstrs == 0 && Stats.SpillLoads == 0 &&
      Stats.SpillStores == 0) {
    Stats.Occupancy =
        static_cast<double>(ResidentWaves) / Target.MaxWavesPerCU;
    Stats.DurationSec = 4e-6; // launch latency only (matches below)
    Stats.IPC = 0.0;
    Stats.VALUBusyPct = 0.0;
    Stats.StallPct = 0.0;
    return;
  }
  // --- Occupancy-dependent L2 behaviour of scratch (spill) traffic ---------
  // The functional simulation runs threads sequentially, which would give
  // per-thread scratch artificially perfect locality; on hardware, tens of
  // thousands of in-flight threads stream their scratch through the shared
  // L2 concurrently. Model that analytically: the resident scratch working
  // set is (threads in flight) x (spill slots + local bytes); once it
  // approaches L2 capacity, scratch accesses miss and evict data lines.
  const uint64_t SpillOps = Stats.SpillLoads + Stats.SpillStores;
  const double ThreadsInFlight = static_cast<double>(ResidentWaves) *
                                 Target.WaveSize * Target.NumCUs;
  const double ScratchBytes =
      ThreadsInFlight *
      (static_cast<double>(Stats.SpillSlots) * 8.0);
  const double Pollution =
      SpillOps ? std::min(1.0, ScratchBytes / static_cast<double>(
                                                  Target.L2Bytes))
               : 0.0;

  // --- Aggregate issue cycles over all threads ----------------------------
  const uint64_t AluOps = Stats.VALUInsts + Stats.SALUInsts;
  // Scratch traffic evicts data lines: degrade the simulated data hit ratio
  // proportionally to the pollution and the share of scratch traffic.
  const uint64_t MemOps = Stats.MemLoads + Stats.MemStores;
  const double ScratchShare =
      (SpillOps + MemOps)
          ? static_cast<double>(SpillOps) /
                static_cast<double>(SpillOps + MemOps)
          : 0.0;
  const double HitRatio =
      Stats.l2HitRatio() * (1.0 - 0.15 * Pollution * ScratchShare);
  const double MemCycles =
      static_cast<double>(MemOps) *
      (HitRatio * Costs.MemL2Hit + (1.0 - HitRatio) * Costs.MemL2Miss);
  const double SpillCost =
      Costs.SpillBase + Pollution * Costs.SpillPollutionExtra;
  const double SpillCycles = static_cast<double>(SpillOps) * SpillCost;
  // Report the blended hit ratio (what rocprof/nvprof would show); scratch
  // accesses hit in proportion to how little they pollute.
  if (SpillOps + MemOps) {
    double SpillHitRatio = 1.0 - 0.5 * Pollution;
    double Blended = (HitRatio * static_cast<double>(MemOps) +
                      SpillHitRatio * static_cast<double>(SpillOps)) /
                     static_cast<double>(SpillOps + MemOps);
    uint64_t Accesses = SpillOps + MemOps;
    Stats.L2Hits = static_cast<uint64_t>(Blended *
                                         static_cast<double>(Accesses));
    Stats.L2Misses = Accesses - Stats.L2Hits;
  }
  const double AluCycles = static_cast<double>(AluOps) * Costs.Alu +
                           static_cast<double>(Stats.TranscendentalInsts) *
                               (Costs.Transcendental - Costs.Alu) +
                           static_cast<double>(Stats.DivInsts) *
                               (Costs.Divide - Costs.Alu);
  const double OtherCycles =
      static_cast<double>(Stats.Branches) * Costs.Branch +
      static_cast<double>(Stats.Atomics) * Costs.Atomic +
      static_cast<double>(Stats.Barriers) * Costs.Barrier;
  const double ThreadCycles =
      AluCycles + MemCycles + SpillCycles + OtherCycles;

  // A launch smaller than the machine cannot fill it.
  const uint64_t TotalThreads = std::max<uint64_t>(1, Stats.totalThreads());
  const double WavesInFlight = std::ceil(
      static_cast<double>(TotalThreads) /
      static_cast<double>(Target.WaveSize * Target.NumCUs));
  double EffectiveWaves =
      std::min<double>(ResidentWaves, std::max(1.0, WavesInFlight));
  Stats.Occupancy =
      static_cast<double>(ResidentWaves) / Target.MaxWavesPerCU;

  // --- Latency hiding --------------------------------------------------------
  // Memory- and spill-bound kernels need more resident waves to keep the
  // lanes busy. K expresses how many waves are needed for full utilization.
  const double MemFraction =
      ThreadCycles > 0 ? (MemCycles + SpillCycles) / ThreadCycles : 0.0;
  const double K = 1.0 + 24.0 * MemFraction;
  const double Utilization = EffectiveWaves / (EffectiveWaves + K);

  // --- Duration ----------------------------------------------------------------
  const double LaneThroughput = static_cast<double>(Target.NumCUs) *
                                static_cast<double>(Target.WaveSize) *
                                Utilization;
  const double Cycles = ThreadCycles / std::max(1.0, LaneThroughput);
  const double LaunchLatency = 4e-6; // driver/runtime launch cost
  Stats.DurationSec = Cycles / (Target.ClockGHz * 1e9) + LaunchLatency;

  // --- Derived counters -----------------------------------------------------
  const double DurationCycles =
      std::max(1.0, (Stats.DurationSec - LaunchLatency) *
                        Target.ClockGHz * 1e9);
  Stats.IPC = static_cast<double>(Stats.TotalInstrs) /
              (DurationCycles * Target.NumCUs);
  Stats.VALUBusyPct =
      ThreadCycles > 0
          ? 100.0 * (static_cast<double>(Stats.VALUInsts) * Costs.Alu +
                     static_cast<double>(Stats.TranscendentalInsts) *
                         (Costs.Transcendental - Costs.Alu)) /
                ThreadCycles * Utilization
          : 0.0;
  Stats.StallPct = 100.0 * MemFraction * (1.0 - Utilization);
}

double proteus::gpu::transferSeconds(const TargetInfo &Target,
                                     uint64_t Bytes) {
  const double Latency = 10e-6; // PCIe/IF hop
  return Latency +
         static_cast<double>(Bytes) / (Target.MemBandwidthGBs * 1e9);
}
