//===- main.cpp - JIT performance benchmark entry point -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--state-dir <dir>] [--references-only 1]
//
// One process, at most nproc (capped at 8) threads. Every run executes the
// phases (Phases.h) that its end-to-end metrics come from; the workload
// decides how the run is shared between them (the counts are for
// --seconds 20 and scale with it):
//
//   hecbench_warm  four seeded rounds of the HeCBench-sim job stream, with
//                  12 rounds of cold compiles and 0.1 x --seconds of warm
//                  launches beside it;
//   jit_cold       three rounds of the job stream, with 24 rounds of cold
//                  compiles and 0.1 x --seconds of warm launches.
//
// The multi-threaded parts — warm-launch pool windows (nproc threads) and
// the fleet storm (20 or 12 cycles) — run only with --trace 1 and report
// per-layer metrics: their wall times follow the shared host's scheduling
// (lock hand-offs, socket round trips, claim back-off sleeps), and as
// end-to-end metrics their 10-run spreads reached 27-28% of the median.
//
// The phases are interleaved: after every job of the stream each other
// phase does its share of the run, so every phase samples the whole run. A
// host-speed probe runs before every step; host times are reported at the
// reference host speed (HostProbe).
//
// Set-up (module builds, AOT compiles, devices, runtimes, cache warm-up) is
// done seven times and reported as the median (the first, with the
// allocator and page tables still cold, is always the slowest). With
// --trace 1 the run records the benchmark's own spans around calls into
// each layer and prints the per-layer metrics instead of the end-to-end
// ones. The last line of
// stdout is the result object; "#row" and "#e2e" lines before it carry the
// machine descriptor, per-(program, arch) rows and the end-to-end metrics.
// --references-only 1 only computes the reference outputs (run.py does this
// in a separate process so the measured run's peak RSS never includes it).
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace perfbench;

namespace {

constexpr int SetupRepetitions = 7;

const char *const Workloads[] = {"hecbench_warm", "jit_cold"};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hecbench_warm|jit_cold> --seed <n> "
               "--seconds <s> --trace <0|1> [--state-dir <dir>] "
               "[--references-only 1]\n",
               Msg);
  return 2;
}

/// \p N, a count of fixed work at --seconds 20, scaled to --seconds.
unsigned scaled(const RunOptions &O, unsigned N) {
  return std::max(2u, static_cast<unsigned>(N * O.Seconds / 20 + 0.5));
}

struct Phases {
  ProgramSet Set;
  unsigned Rounds;
  std::unique_ptr<Phase> Hecbench, Cold, Warm, Fleet;

  Phases(const ReferenceStore &Refs, const RunOptions &O)
      : Rounds(O.Workload == "hecbench_warm" ? 4 : 3) {
    bool ColdRun = O.Workload == "jit_cold";
    Set.build();
    Hecbench = makeHecbenchPhase(Set, Refs, O, Rounds);
    Cold = makeJitColdPhase(Set, Refs, O, scaled(O, ColdRun ? 24 : 12));
    Warm = makeWarmLaunchPhase(O);
    if (O.Trace)
      Fleet = makeFleetPhase(Set, Refs, O, scaled(O, ColdRun ? 12 : 20));
  }

  std::vector<Phase *> all() {
    std::vector<Phase *> All = {Hecbench.get(), Cold.get(), Warm.get()};
    if (Fleet)
      All.push_back(Fleet.get());
    return All;
  }
};

} // namespace

void ProgramSet::build() {
  Clock::time_point T0 = Clock::now();
  Benchmarks = proteus::hecbench::allBenchmarks();
  Programs.clear();
  for (auto &B : Benchmarks)
    for (proteus::GpuArch A :
         {proteus::GpuArch::AmdGcnSim, proteus::GpuArch::NvPtxSim})
      Programs.push_back(buildProgram(*B, A));
  AotSeconds = secondsSince(T0);
}

int main(int argc, char **argv) {
  RunOptions O;
  std::string StateDir = ".bench_run";
  bool HaveWorkload = false, HaveSeed = false, ReferencesOnly = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V.c_str());
    } else if (A == "--trace") {
      O.Trace = V == "1";
    } else if (A == "--state-dir") {
      StateDir = V;
    } else if (A == "--references-only") {
      ReferencesOnly = V == "1";
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || O.Seconds <= 0 ||
      std::find_if(std::begin(Workloads), std::end(Workloads),
                   [&](const char *W) { return O.Workload == W; }) ==
          std::end(Workloads))
    return usage("bad or missing arguments");
  if (proteus::trace::enabled())
    return usage("PROTEUS_TRACE must be unset: the benchmark records its "
                 "own spans");
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  O.Threads = std::min(Nproc, 8u);

  // Work in a private directory under the state directory: cache
  // directories and the fleet socket are relative to it.
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(StateDir, EC);
  fs::path State = fs::absolute(StateDir);
  fs::path Work = State / format("run-%d", static_cast<int>(getpid()));
  fs::remove_all(Work, EC);
  fs::create_directories(Work, EC);
  fs::path Home = fs::current_path();
  if (EC || chdir(Work.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use state directory %s\n",
                 State.c_str());
    return 1;
  }

  ReferenceStore Refs(State.string());
  Report Rep;
  std::vector<double> SetupS;
  HostProbe Probe;
  std::string Error;
  bool Ok = true;
  {
    // References: verified once per build of this binary (untimed).
    if (!Refs.has("complete")) {
      Phases Ref(Refs, O);
      for (Phase *P : Ref.all())
        if (Ok && !P->prepareReferences(Refs, Error))
          Ok = false;
      Refs.set("complete", 1);
      if (Ok && !Refs.save())
        std::fprintf(stderr, "perfbench: warning: cannot save references\n");
    }

    std::unique_ptr<Phases> Run;
    for (int R = 0; Ok && !ReferencesOnly && R != SetupRepetitions; ++R) {
      Run.reset();
      Clock::time_point T0 = Clock::now();
      Run = std::make_unique<Phases>(Refs, O);
      for (Phase *P : Run->all())
        if (Ok && !P->setup(Error))
          Ok = false;
      SetupS.push_back(secondsSince(T0));
      Probe.sample();
    }

    if (Ok && !ReferencesOnly) {
      std::unique_ptr<Tracer> T;
      if (O.Trace)
        T = std::make_unique<Tracer>();
      // After every HeCBench job the other phases each do their share of
      // the run, so all of them sample the whole of it.
      double Steps =
          static_cast<double>(Run->Rounds * Run->Set.Programs.size() + 1);
      double WarmSlice = O.Seconds * 0.1 / Steps;
      bool More = true;
      // The host-speed probe runs before every step (see HostProbe).
      for (double Done = 1; More; ++Done) {
        Probe.sample();
        More = Run->Hecbench->step(0, 0, Rep, T.get());
        Probe.sample();
        Run->Cold->step(Done / Steps, 0, Rep, T.get());
        Probe.sample();
        Run->Warm->step(Done / Steps, WarmSlice, Rep, T.get());
        if (Run->Fleet) {
          Probe.sample();
          Run->Fleet->step(Done / Steps, 0, Rep, T.get());
        }
      }
      for (Phase *P : Run->all())
        P->finish(Rep, T.get());
      for (Phase *P : Run->all())
        P->report(Rep, T.get());
      if (T)
        Rep.row(format("{\"trace\": {\"spans\": %zu}}", T->spanCount()));
    }
  }
  chdir(Home.c_str());
  fs::remove_all(Work, EC);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  if (ReferencesOnly)
    return 0;

  Rep.hostTime("setup_s", median(SetupS), "s");
  Rep.endToEnd("peak_rss_mb", peakRssMb(), "MiB");
  Rep.endToEnd("ok_ratio", Rep.okRatio(), "ratio");
  Rep.normalize(Probe);
  std::string Reps;
  for (double S : SetupS)
    Reps += format("%s%.4f", Reps.empty() ? "" : ", ", S);
#ifdef NDEBUG
  const bool Asserts = false;
#else
  const bool Asserts = true;
#endif
  Rep.row(format("{\"machine\": {\"nproc\": %u, \"threads\": %u, "
                 "\"build_type\": \"%s\", \"asserts\": %s, "
                 "\"compiler\": \"%s\"}, \"workload\": \"%s\", \"seed\": %llu, "
                 "\"seconds\": %g, \"trace\": %d, \"setup_runs_s\": [%s]}",
                 Nproc, O.Threads, PERFBENCH_BUILD_TYPE,
                 Asserts ? "true" : "false", PERFBENCH_CXX_COMPILER,
                 O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                 O.Seconds, O.Trace ? 1 : 0, Reps.c_str()));
  Rep.print(O.Trace);
  return 0;
}
