//===- Phases.h - the benchmark's four measured phases ----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every run executes the HeCBench, cold-compile and warm-launch phases, so
/// that every end-to-end metric is measured on every workload; the fleet
/// phase runs in traced runs only. The workload decides which phase gets
/// most of the run (see main.cpp). Each phase has these parts:
///
///   * prepareReferences — compute, once per build of the benchmark, the
///     reference outputs the timed operations are checked against (the IR
///     interpreter's results); not part of set-up time;
///   * setup — everything a phase builds before its first timed operation
///     (module build, AOT compile, devices, runtimes, cache warm-up); timed
///     as set-up, repeated seven times per run, never part of a metric;
///   * step — a slice of the timed, checked operations: the HeCBench phase
///     runs its next job, the cold and fleet phases catch up to their share
///     of a fixed amount of work (so the kernels their devices load, and
///     with them peak RSS, do not grow with throughput), and the warm-launch
///     phase runs for a time budget (its pool windows only when traced). main.cpp interleaves the phases' steps
///     across the whole run, so every phase samples the run's full stretch
///     of time;
///   * finish, then report — complete the fixed work and minimum counts,
///     run traced-only probes, and add the phase's metrics to the result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Common.h"

namespace perfbench {

/// What one run was asked to do.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1; ///< worker threads the run may use (<= nproc)
};

/// The HeCBench-sim programs, built and AOT-compiled for both arches.
struct ProgramSet {
  std::vector<std::unique_ptr<proteus::hecbench::Benchmark>> Benchmarks;
  std::vector<std::unique_ptr<ProgramBuild>> Programs;
  double AotSeconds = 0;

  void build();
};

class Phase {
public:
  virtual ~Phase() = default;
  virtual bool prepareReferences(ReferenceStore &Refs, std::string &Error) = 0;
  virtual bool setup(std::string &Error) = 0;
  /// Runs the next slice. \p Progress is the share of the run's slices done
  /// once this one ends (fixed-work phases do that share of their work);
  /// \p BudgetSeconds is the slice's time (time-budgeted phases use it).
  /// Returns false once the phase has no further steps.
  virtual bool step(double Progress, double BudgetSeconds, Report &R,
                    Tracer *T) = 0;
  virtual void finish(Report &R, Tracer *T) = 0;
  virtual void report(Report &R, Tracer *T) = 0;
};

/// Warm-cache HeCBench-sim executions (the paper's "Proteus+$" column):
/// each job builds a fresh device and runtime over the warm persistent cache
/// and runs one (program, arch) pair. The job stream is \p Rounds seeded
/// permutations of all pairs plus one seeded extra job (one job per step);
/// it is fixed work, not time-budgeted, so simulated time is exact for a
/// given seed.
std::unique_ptr<Phase> makeHecbenchPhase(ProgramSet &Set,
                                         const ReferenceStore &Refs,
                                         const RunOptions &O,
                                         unsigned Rounds);

/// Cold compiles: \p Rounds seeded rounds of one-block launches of the
/// programs' distinct jit launches, every sample with empty caches, tier off
/// and tier on.
std::unique_ptr<Phase> makeJitColdPhase(ProgramSet &Set,
                                        const ReferenceStore &Refs,
                                        const RunOptions &O, unsigned Rounds);

/// Warm launches of a near-empty kernel: 1 thread x 1 device latency and,
/// traced, nproc threads x 4 devices throughput.
std::unique_ptr<Phase> makeWarmLaunchPhase(const RunOptions &O);

/// An in-process fleet cache server with nproc/2 clients: \p Cycles of a
/// cold storm over the programs' distinct jit launches, then a warm restart.
std::unique_ptr<Phase> makeFleetPhase(ProgramSet &Set,
                                      const ReferenceStore &Refs,
                                      const RunOptions &O, unsigned Cycles);

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
