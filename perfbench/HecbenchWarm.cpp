//===- HecbenchWarm.cpp - warm-cache HeCBench-sim executions --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Each job executes one (program, arch) pair the way hecbench::runBenchmark
// does in Proteus mode over a warm persistent cache: a fresh 256 MiB device,
// a fresh JitRuntime, the program load, buffer uploads, the launch sequence
// with sampled-simulation time scaling, and the program's own output check.
// Module build and AOT compile happen once in set-up, as does the cache
// warm-up (installFinalTier of every jit launch, which writes the same
// final-tier entries a cold run would).
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "jit/CodeCache.h"

#include <algorithm>
#include <cstring>
#include <numeric>

using namespace proteus;

namespace perfbench {
namespace {

constexpr uint64_t DeviceBytes = 1ull << 28; // what runBenchmark allocates
constexpr uint64_t WarmupDeviceBytes = 1ull << 24;
const char *const CacheDir = "hecbench-cache";

struct Execution {
  bool Ok = true;
  std::string Error;
  double WallS = 0;
  double LaunchS = 0; ///< host seconds inside the program's launches
  double SimS = 0;
  uint64_t Insts = 0;
  uint64_t Digest = 0;
  uint64_t Compiles = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  long MinorFaults = 0;
};

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

/// The simulated seconds of one execution of \p P, from the references.
double referenceSimSeconds(const ReferenceStore &Refs, const ProgramBuild &P) {
  double D;
  uint64_t B = Refs.get("hec/" + P.Name + "/sim");
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

class HecbenchPhase final : public Phase {
public:
  HecbenchPhase(ProgramSet &Set, const ReferenceStore &Refs,
                const RunOptions &O, unsigned Rounds)
      : Set(Set), Refs(Refs), O(O), Rounds(Rounds) {}


  bool prepareReferences(ReferenceStore &Store, std::string &Error) override {
    for (auto &P : Set.Programs) {
      std::string Key = "hec/" + P->Name;
      if (Store.has(Key + "/digest"))
        continue;
      // A warm run (cold runs add the bitcode readback to simulated time
      // on nvptx-sim) whose final device memory must equal the
      // interpreter's.
      CodeCache(false, true, "hecbench-ref-cache").clearPersistent();
      Execution E = execute(*P, "hecbench-ref-cache", nullptr, 0, nullptr);
      std::vector<uint8_t> Snapshot;
      if (E.Ok)
        E = execute(*P, "hecbench-ref-cache", nullptr, 0, &Snapshot);
      if (!E.Ok) {
        Error = E.Error;
        return false;
      }
      Store.set(Key + "/digest", E.Digest);
      Store.set(Key + "/sim", bitsOf(E.SimS));
      Store.set(Key + "/insts", E.Insts);
    }
    return true;
  }

  bool setup(std::string &Error) override {
    // Warm the persistent cache through the runtime's public API.
    CodeCache(false, true, CacheDir).clearPersistent();
    JitConfig Cfg;
    Cfg.CacheDir = CacheDir;
    for (auto &P : Set.Programs) {
      ProgramInstance I;
      if (!instantiate(*P, WarmupDeviceBytes, Cfg, I, Error))
        return false;
      for (const hecbench::LaunchSpec &L : P->Launches) {
        if (!P->Prog.JitKernels.count(L.Symbol))
          continue;
        std::string Err;
        if (I.Jit->installFinalTier(L.Symbol, L.Block, I.args(L), nullptr, -1,
                                    true, &Err) != gpu::GpuError::Success) {
          Error = P->Name + ": cache warm-up failed: " + Err;
          return false;
        }
      }
    }
    Rng R(O.Seed ^ 0x4845434243ULL);
    Stream.clear();
    for (unsigned Round = 0; Round != Rounds; ++Round) {
      std::vector<size_t> Order(Set.Programs.size());
      for (size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      R.shuffle(Order);
      Stream.insert(Stream.end(), Order.begin(), Order.end());
    }
    // One seeded extra job makes the stream, and so sim_device_s, differ by
    // seed. It is drawn from the half of the pairs that simulate fastest,
    // so it moves the total by about 1% rather than up to 10%.
    std::vector<size_t> Light(Set.Programs.size());
    std::iota(Light.begin(), Light.end(), size_t{0});
    std::sort(Light.begin(), Light.end(), [&](size_t A, size_t B) {
      return referenceSimSeconds(Refs, *Set.Programs[A]) <
             referenceSimSeconds(Refs, *Set.Programs[B]);
    });
    Light.resize((Light.size() + 1) / 2);
    Stream.push_back(Light[R.below(Light.size())]);
    Next = 0;
    return true;
  }

  bool step(double, double, Report &Rep, Tracer *T) override {
    if (Next == 0)
      Walls.assign(Set.Programs.size(), {});
    if (Next == Stream.size())
      return false;
    size_t J = Next++;
    const ProgramBuild &P = *Set.Programs[Stream[J]];
    Execution E = execute(P, CacheDir, T, J, nullptr);
    std::string Key = "hec/" + P.Name;
    bool Ok = E.Ok && E.Compiles == 0 &&
              E.Digest == Refs.get(Key + "/digest") &&
              bitsOf(E.SimS) == Refs.get(Key + "/sim") &&
              E.Insts == Refs.get(Key + "/insts");
    Rep.operation("hecbench.job", Ok,
                  P.Name + (!E.Ok        ? ": " + E.Error
                            : E.Compiles ? ": compiled on a warm cache"
                                         : ": output or simulated time "
                                           "differs from the reference"));
    Walls[Stream[J]].push_back(E.WallS);
    Faults.push_back(static_cast<double>(E.MinorFaults));
    SimTotal += E.SimS;
    InstTotal += E.Insts;
    LaunchTotal += E.LaunchS;
    CacheHits += E.CacheHits;
    CacheMisses += E.CacheMisses;
    return Next != Stream.size();
  }

  void finish(Report &, Tracer *T) override {
    if (T)
      probeCacheLevels();
  }

  void report(Report &Rep, Tracer *T) override {
    // Per pair the best of its executions (interference on a shared host
    // only adds time), then the geometric mean over pairs.
    std::vector<double> PairBest;
    for (size_t I = 0; I != Set.Programs.size(); ++I) {
      const ProgramBuild &P = *Set.Programs[I];
      PairBest.push_back(*std::min_element(Walls[I].begin(), Walls[I].end()));
      Rep.row(format("{\"phase\": \"hecbench_warm\", \"program\": \"%s\", "
                     "\"arch\": \"%s\", \"executions\": %zu, "
                     "\"wall_best_s\": %.6f, \"wall_median_s\": %.6f, "
                     "\"sim_device_s\": %.9g, "
                     "\"sim_insts\": %llu}",
                     P.B->name().c_str(), archName(P.Arch), Walls[I].size(),
                     PairBest.back(), median(Walls[I]),
                     referenceSimSeconds(Refs, P),
                     static_cast<unsigned long long>(
                         Refs.get("hec/" + P.Name + "/insts"))));
    }
    Rep.hostTime("program_wall_s", geomean(PairBest), "s");
    Rep.endToEnd("sim_device_s", SimTotal, "s");
    if (!T)
      return;
    auto S = T->summarize();
    Rep.perLayer("gpu.device_setup_s", median(S["gpu.device_setup"].Self), "s");
    Rep.perLayer("gpu.minor_faults", median(Faults), "count");
    Rep.perLayer("gpu.sim_insts", static_cast<double>(InstTotal), "count");
    Rep.perLayer("gpu.sim_ips",
                 LaunchTotal > 0 ? static_cast<double>(InstTotal) / LaunchTotal
                                 : 0,
                 "1/s");
    Rep.perLayer("gpu.launch_us", median(S["gpu.launch"].Self) * 1e6, "us");
    Rep.perLayer("gpu.memcpy_us", median(S["gpu.memcpy"].Self) * 1e6, "us");
    Rep.perLayer("hecbench.verify_s", median(S["hecbench.verify"].Self), "s");
    Rep.perLayer("hecbench.aot_compile_s", Set.AotSeconds, "s");
    Rep.perLayer("cache.mem_hit_ns", median(MemHitNs), "ns");
    Rep.perLayer("cache.disk_hit_us", median(DiskHitUs), "us");
    Rep.perLayer("cache.hit_ratio",
                 static_cast<double>(CacheHits) /
                     static_cast<double>(std::max<uint64_t>(
                         CacheHits + CacheMisses, 1)),
                 "ratio");
  }

private:
  Execution execute(const ProgramBuild &P, const std::string &Dir, Tracer *T,
                    uint64_t Req, std::vector<uint8_t> *Snapshot) {
    Execution Out;
    long Faults0 = minorFaults();
    Clock::time_point T0 = Clock::now();
    {
      ScopedSpan Root(T, "hecbench.execute", Req);
      std::unique_ptr<gpu::Device> Dev;
      {
        ScopedSpan Sp(T, "gpu.device_setup", Req);
        Dev = std::make_unique<gpu::Device>(getTarget(P.Arch), DeviceBytes);
      }
      JitConfig Cfg;
      Cfg.CacheDir = Dir;
      std::unique_ptr<JitRuntime> Jit;
      std::unique_ptr<LoadedProgram> LP;
      {
        ScopedSpan Sp(T, "jit.program_load", Req);
        Jit = std::make_unique<JitRuntime>(*Dev, P.Prog.ModuleId, Cfg);
        LP = std::make_unique<LoadedProgram>(*Dev, P.Prog, Jit.get());
      }
      if (!LP->ok()) {
        Out.Ok = false;
        Out.Error = LP->error();
        return Out;
      }
      ProgramInstance View; // buffer bookkeeping only
      {
        ScopedSpan Sp(T, "gpu.memcpy", Req);
        for (const hecbench::BufferSpec &BS : P.Buffers) {
          gpu::DevicePtr Ptr = 0;
          if (gpu::gpuMalloc(*Dev, &Ptr, BS.Init.size()) !=
              gpu::GpuError::Success) {
            Out.Ok = false;
            Out.Error = "device out of memory for buffer " + BS.Name;
            return Out;
          }
          gpu::gpuMemcpyHtoD(*Dev, Ptr, BS.Init.data(), BS.Init.size());
          View.Ptrs[BS.Name] = Ptr;
          View.Sizes[BS.Name] = BS.Init.size();
        }
      }
      if (Snapshot)
        *Snapshot = Dev->memory();
      Dev->resetSimulatedTime();
      uint64_t Scale = P.B->timeScale();
      for (const hecbench::LaunchSpec &L : P.Launches) {
        std::string Err;
        gpu::GpuError E;
        Clock::time_point L0 = Clock::now();
        {
          ScopedSpan Sp(T, "gpu.launch", Req);
          E = LP->launch(L.Symbol, L.Grid, L.Block, View.args(L), &Err);
        }
        Out.LaunchS += secondsSince(L0);
        if (E != gpu::GpuError::Success) {
          Out.Ok = false;
          Out.Error = "launch of @" + L.Symbol + " failed: " + Err;
          return Out;
        }
        if (Scale > 1) {
          double D = Dev->LastLaunch.DurationSec * static_cast<double>(Scale - 1);
          Dev->addSimulatedSeconds(D);
          Dev->addKernelSeconds(D);
        }
      }
      Jit->drain();
      Out.SimS = Dev->simulatedSeconds();
      for (const auto &[Kernel, Stats] : Dev->Profile)
        Out.Insts += Stats.TotalInstrs;
      JitRuntimeStats JS = Jit->stats();
      Out.Compiles = JS.Compilations + JS.Tier0Compiles;
      CodeCacheStats CS = Jit->cache().stats();
      Out.CacheHits = CS.MemoryHits + CS.PersistentHits + CS.RemoteHits;
      Out.CacheMisses = CS.Misses;
      {
        ScopedSpan Sp(T, "hecbench.verify", Req);
        hecbench::BufferReader Reader(*Dev, View.Ptrs, View.Sizes);
        if (!P.B->verifyOutput(Reader)) {
          Out.Ok = false;
          Out.Error = "output verification failed";
        }
        Out.Digest = bufferDigest(*Dev, View.Ptrs, View.Sizes);
      }
      if (Snapshot && Out.Ok) {
        std::string Err;
        if (!interpretLaunches(P, *Dev, P.Launches, View.Ptrs, 0, *Snapshot,
                               Err)) {
          Out.Ok = false;
          Out.Error = Err;
        } else if (*Snapshot != Dev->memory()) {
          Out.Ok = false;
          Out.Error = P.Name + ": device memory differs from the interpreter";
        }
      }
      ScopedSpan Sp(T, "gpu.device_teardown", Req);
      LP.reset();
      Jit.reset();
      Dev.reset();
    }
    Out.WallS = secondsSince(T0);
    Out.MinorFaults = minorFaults() - Faults0;
    return Out;
  }

  /// Latency of the two local cache levels on the warm entries: a memory
  /// hit through a CodeCache that already holds the entry, and a persistent
  /// hit through a fresh CodeCache with no memory level.
  void probeCacheLevels() {
    MemHitNs.clear();
    DiskHitUs.clear();
    JitConfig Cfg;
    Cfg.UsePersistentCache = false;
    for (auto &P : Set.Programs) {
      ProgramInstance I;
      std::string Err;
      if (!instantiate(*P, WarmupDeviceBytes, Cfg, I, Err))
        continue;
      for (const hecbench::LaunchSpec &L : P->Launches) {
        if (!P->Prog.JitKernels.count(L.Symbol))
          continue;
        uint64_t Hash =
            computeSpecializationHash(specializationKey(*P, L, I.args(L)));

        for (int Rep = 0; Rep != 20; ++Rep) {
          CodeCache Disk(false, true, CacheDir);
          Clock::time_point D0 = Clock::now();
          bool Hit = Disk.lookup(Hash).has_value();
          double Us = secondsSince(D0) * 1e6;
          if (Hit)
            DiskHitUs.push_back(Us);
        }
        CodeCache Mem(true, true, CacheDir);
        if (!Mem.lookup(Hash))
          continue;
        constexpr int Batch = 200;
        for (int Rep = 0; Rep != 20; ++Rep) {
          Clock::time_point M0 = Clock::now();
          for (int K = 0; K != Batch; ++K)
            (void)Mem.lookup(Hash);
          MemHitNs.push_back(secondsSince(M0) * 1e9 / Batch);
        }
        break; // one specialization per pair
      }
    }
  }

  ProgramSet &Set;
  const ReferenceStore &Refs;
  RunOptions O;
  unsigned Rounds;
  std::vector<size_t> Stream;
  size_t Next = 0; ///< next job of the stream
  std::vector<std::vector<double>> Walls;
  std::vector<double> Faults, MemHitNs, DiskHitUs;
  double SimTotal = 0, LaunchTotal = 0;
  uint64_t InstTotal = 0, CacheHits = 0, CacheMisses = 0;
};

} // namespace

std::unique_ptr<Phase> makeHecbenchPhase(ProgramSet &Set,
                                         const ReferenceStore &Refs,
                                         const RunOptions &O,
                                         unsigned Rounds) {
  return std::make_unique<HecbenchPhase>(Set, Refs, O, Rounds);
}

} // namespace perfbench
