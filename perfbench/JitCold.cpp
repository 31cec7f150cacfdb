//===- JitCold.cpp - cold JIT compiles of the programs' own launches ------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The population is every distinct jit launch of the six programs on both
// arches. Each sample runs one block of one launch on a long-lived device
// after dropping the runtime's in-memory state and clearing its persistent
// cache, so every sample is a cold compile that also writes the cache; its
// output must equal the IR interpreter's for the same one-block launch.
// A run is a fixed number of rounds, each visiting the whole population in a
// seeded order, so every entry is sampled equally often and the loaded
// kernels the devices keep do not grow with compile speed. Each entry is
// sampled with tiering off (JitConfig defaults: Sync, Tier off) and then on,
// draining the background Tier-1 compile outside the timed region. An
// entry's latency is its best sample over the rounds (on a shared host
// interference only adds time); the metrics are the geometric mean and the
// 90th percentile over entries. The entries' latencies cluster with gaps
// between the clusters, so a median over 20 entries jumped by up to 14%
// whenever one entry crossed it; the geometric mean moves smoothly and
// weighs every entry the same. With 20 entries the tail is the
// third-slowest entry's best compile, not a percentile over all samples: a
// sample-level tail on a shared host mostly measured the host's
// interference.
//
// The traced run cannot place spans inside launchKernel, so it also drives
// the cold path stage by stage from outside, in the runtime's order: cache
// lookup, bitcode fetch, KernelModuleIndex build + materialize, global
// linking + specialization, the O3 pipeline, analyzeKernel, the backend
// with BackendStats, the cache insert, module load and launch. Launch time
// those stages do not cover is reported as jit.cold_unattributed_us, and
// each stage is compared with the runtime's own timer for it.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "analysis/KernelAnalyzer.h"
#include "bitcode/ModuleIndex.h"
#include "codegen/Compiler.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <algorithm>
#include <array>
#include <cstring>

using namespace proteus;

namespace perfbench {
namespace {

constexpr double TailPercentile = 90;

/// Programs whose Tier-0 compile aborts the process (the fast O3 preset
/// leaves IR the instruction selector rejects: "isel: unsupported operand
/// kind"); they are sampled with tiering off only.
bool tierZeroCompiles(const ProgramBuild &P) {
  return P.B->name() != "FEY-KAC";
}

struct PairState {
  ProgramBuild *P = nullptr;
  ProgramInstance Off, On; ///< tier off / tier on, each on its own device
  std::vector<uint8_t> Snapshot;
  uint64_t Hwm = 0; ///< end of the highest allocation
  std::vector<size_t> Shapes; ///< indices of distinct jit launches
};

struct StageSample {
  double Bytes = 0, IrInsts = 0, Invocations = 0, ObjectBytes = 0;
  double SpillSlots = 0;
  BackendStats BS;
  bool Nvptx = false;
  std::map<std::string, double> PassSeconds;
};

class JitColdPhase final : public Phase {
public:
  JitColdPhase(ProgramSet &Set, const ReferenceStore &Refs,
               const RunOptions &O, unsigned TotalRounds)
      : Set(Set), Refs(Refs), O(O), TotalRounds(TotalRounds),
        Order(O.Seed ^ 0x434f4c44ULL) {}

  bool prepareReferences(ReferenceStore &Store, std::string &Error) override {
    return prepareOneBlockReferences(Set.Programs, Store, Error);
  }

  bool setup(std::string &Error) override {
    Pairs.clear();
    Total = 0;
    for (auto &P : Set.Programs) {
      auto S = std::make_unique<PairState>();
      S->P = P.get();
      S->Shapes = distinctJitLaunches(*P);
      for (bool Tier : {false, true}) {
        JitConfig Cfg;
        Cfg.CacheDir = format("cold-cache/%zu-%d", Pairs.size(), Tier);
        Cfg.Tier = Tier;
        Cfg.AsyncWorkers = 1;
        if (!instantiate(*P, oneBlockDeviceBytes(*P), Cfg,
                         Tier ? S->On : S->Off, Error))
          return false;
      }
      S->Hwm = highWaterMark(*S->Off.Dev);
      S->Snapshot.assign(S->Off.Dev->memory().begin(),
                         S->Off.Dev->memory().begin() + S->Hwm);
      Total += S->Shapes.size() * TotalRounds;
      Pairs.push_back(std::move(S));
    }
    return true;
  }

  bool step(double Progress, double, Report &Rep, Tracer *T) override {
    while (static_cast<double>(Samples) < Progress * static_cast<double>(Total))
      sampleNext(Rep, T);
    return true;
  }

  void finish(Report &Rep, Tracer *T) override {
    while (Samples < Total)
      sampleNext(Rep, T);
  }

  void report(Report &Rep, Tracer *T) override {
    std::vector<double> OffMs = values(BestOff), OnMs = values(BestOn);
    double Geo = geomean(OffMs), Tail = percentile(OffMs, TailPercentile);
    double TierGeo = geomean(OnMs);
    Rep.hostTime("cold_launch_geomean_ms", Geo, "ms");
    Rep.hostTime("cold_launch_tail_ms", Tail, "ms");
    Rep.hostTime("cold_launch_tier_geomean_ms", TierGeo, "ms");
    // The cold-start ratio over the entries sampled with both tiers.
    std::vector<double> BothOffMs;
    for (const auto &KV : BestOff)
      if (BestOn.count(KV.first))
        BothOffMs.push_back(KV.second);
    size_t Beyond = 0;
    for (double V : OffMs)
      Beyond += V > Tail;
    // The tail is a percentile over entries (each its best of the rounds),
    // so the row counts entries beyond it, not samples.
    Rep.row(format("{\"phase\": \"jit_cold\", \"entries\": %zu, "
                   "\"tier_entries\": %zu, \"rounds\": %u, "
                   "\"tail_percentile_over_entries\": %g, "
                   "\"entries_beyond_tail\": %zu, \"geomean_ms\": %.4f, "
                   "\"p50_ms\": %.4f, \"tail_ms\": %.4f, "
                   "\"tier_geomean_ms\": %.4f, \"tier_p50_ms\": %.4f, "
                   "\"coldstart_ratio\": %.3f}",
                   OffMs.size(), OnMs.size(), Rounds, TailPercentile, Beyond,
                   Geo, median(OffMs), Tail, TierGeo, median(OnMs),
                   geomean(BothOffMs) / TierGeo));

    auto List = [](const std::vector<double> &V) {
      std::string Out;
      for (double X : V)
        Out += format("%s%.4f", Out.empty() ? "" : ", ", X);
      return Out;
    };
    Rep.row(format("{\"phase\": \"jit_cold\", \"entry_best_ms\": "
                   "{\"tier_off\": [%s], \"tier_on\": [%s]}}",
                   List(OffMs).c_str(), List(OnMs).c_str()));

    // The runtime's own stage timers, per tier-off compile.
    JitRuntimeStats Sum;
    uint64_t Launches = 0, Compiles = 0;
    std::map<std::string, double> PassSum;
    for (auto &S : Pairs) {
      JitRuntimeStats Off = S->Off.Jit->stats(), On = S->On.Jit->stats();
      Sum.BitcodeParseSeconds += Off.BitcodeParseSeconds;
      Sum.OptimizeSeconds += Off.OptimizeSeconds;
      Sum.BackendSeconds += Off.BackendSeconds;
      Sum.CacheLookupSeconds += Off.CacheLookupSeconds;
      for (const auto &[Pass, Sec] : Off.O3PassSeconds)
        PassSum[Pass] += Sec;
      Launches += Off.Launches;
      Sum.Compilations += Off.Compilations;
      Compiles += Off.Compilations + On.Compilations + On.Tier0Compiles;
    }
    double PerCompile = Sum.Compilations ? 1e6 / Sum.Compilations : 0;
    double PassTotal = 0;
    for (const auto &[Pass, Sec] : PassSum)
      PassTotal += Sec;
    double TimerParse = Sum.BitcodeParseSeconds * PerCompile;
    double TimerO3 = Sum.OptimizeSeconds * PerCompile;
    double TimerPasses = PassTotal * PerCompile;
    double TimerBackend = Sum.BackendSeconds * PerCompile;
    double TimerLookup = Launches ? Sum.CacheLookupSeconds * 1e6 / Launches : 0;
    Rep.row(format("{\"phase\": \"jit_cold\", \"runtime_timers_us_per_compile\": "
                   "{\"parse\": %.2f, \"optimize\": %.2f, \"o3_passes\": %.2f, "
                   "\"backend\": %.2f, \"cache_lookup_per_launch\": %.2f}}",
                   TimerParse, TimerO3, TimerPasses, TimerBackend,
                   TimerLookup));
    if (!T)
      return;

    auto Sp = T->summarize();
    auto SelfUs = [&](const char *Name) {
      return median(Sp[Name].Self) * 1e6;
    };
    auto MeanUs = [&](const char *Name) { return mean(Sp[Name].Self) * 1e6; };
    std::vector<double> Bytes, Insts, Invocations, ObjBytes, Spills, ISel, RA,
        PtxEmit, PtxAsm, PassesUs;
    std::map<std::string, std::vector<double>> PerPass;
    for (const StageSample &St : Stages) {
      Bytes.push_back(St.Bytes);
      Insts.push_back(St.IrInsts);
      Invocations.push_back(St.Invocations);
      ObjBytes.push_back(St.ObjectBytes);
      Spills.push_back(St.SpillSlots);
      ISel.push_back(St.BS.ISelSeconds * 1e6);
      RA.push_back(St.BS.RegAllocSeconds * 1e6);
      if (St.Nvptx) {
        PtxEmit.push_back(St.BS.PtxEmitSeconds * 1e6);
        PtxAsm.push_back(St.BS.PtxAsmSeconds * 1e6);
      }
      double AllPassesUs = 0;
      for (const auto &[Pass, Sec] : St.PassSeconds) {
        PerPass[Pass].push_back(Sec * 1e6);
        AllPassesUs += Sec * 1e6;
      }
      PassesUs.push_back(AllPassesUs);
    }
    Rep.perLayer("cache.lookup_miss_us", SelfUs("cache.lookup"), "us");
    Rep.perLayer("bitcode.parse_us", SelfUs("bitcode.parse"), "us");
    Rep.perLayer("bitcode.bytes", median(Bytes), "bytes");
    Rep.perLayer("jit.specialize_us", SelfUs("jit.specialize"), "us");
    Rep.perLayer("transforms.o3_us", SelfUs("transforms.o3"), "us");
    for (const auto &[Pass, Us] : PerPass)
      Rep.perLayer("transforms.pass." + Pass + "_us", median(Us), "us");
    Rep.perLayer("transforms.pass_invocations", median(Invocations), "count");
    Rep.perLayer("transforms.ir_insts_out", median(Insts), "count");
    Rep.perLayer("analysis.analyze_us", SelfUs("analysis.analyze"), "us");
    Rep.perLayer("codegen.isel_us", median(ISel), "us");
    Rep.perLayer("codegen.regalloc_us", median(RA), "us");
    Rep.perLayer("codegen.ptx_emit_us", median(PtxEmit), "us");
    Rep.perLayer("codegen.ptx_asm_us", median(PtxAsm), "us");
    Rep.perLayer("codegen.object_bytes", median(ObjBytes), "bytes");
    Rep.perLayer("codegen.spill_slots", mean(Spills), "count");
    Rep.perLayer("cache.disk_insert_us", SelfUs("cache.disk_insert"), "us");
    Rep.perLayer("gpu.module_load_us", SelfUs("gpu.module_load"), "us");
    Rep.perLayer("jit.tier0_us", SelfUs("jit.tier0"), "us");
    Rep.perLayer("jit.cold_unattributed_us", median(Unattributed), "us");
    Rep.perLayer("jit.compiles", static_cast<double>(Compiles), "count");
    // Replica stage / runtime timer, both as means per compile.
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
    Rep.perLayer("xcheck.parse_ratio", Ratio(MeanUs("bitcode.parse"), TimerParse),
                 "ratio");
    Rep.perLayer("xcheck.o3_ratio", Ratio(MeanUs("transforms.o3"), TimerO3),
                 "ratio");
    Rep.perLayer("xcheck.o3_passes_ratio", Ratio(mean(PassesUs), TimerPasses),
                 "ratio");
    Rep.perLayer("xcheck.backend_ratio",
                 Ratio(MeanUs("codegen.backend"), TimerBackend), "ratio");
    Rep.perLayer("xcheck.cache_lookup_ratio",
                 Ratio(MeanUs("cache.lookup"), TimerLookup), "ratio");
    // Per-arch stage medians, for comparison with older single-kernel
    // micro-benchmarks.
    for (GpuArch A : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
      std::vector<double> Parse, SpecO3, Backend;
      for (size_t I = 0; I != Stages.size(); ++I) {
        if (Stages[I].Nvptx != (A == GpuArch::NvPtxSim))
          continue;
        Parse.push_back(StageUs[I][0]);
        SpecO3.push_back(StageUs[I][1]);
        Backend.push_back(StageUs[I][2]);
      }
      Rep.row(format("{\"phase\": \"jit_cold\", \"arch\": \"%s\", "
                     "\"parse_us\": %.2f, \"specialize_o3_us\": %.2f, "
                     "\"backend_us\": %.2f, \"samples\": %zu}",
                     archName(A), median(Parse), median(SpecO3),
                     median(Backend), Parse.size()));
    }
  }

private:
  /// Samples the next entry of the current round (starting a new seeded
  /// round when the last one is complete): tier off, then tier on.
  void sampleNext(Report &Rep, Tracer *T) {
    if (Cursor == 0) {
      if (Entries.empty())
        for (size_t I = 0; I != Pairs.size(); ++I)
          for (size_t Idx : Pairs[I]->Shapes)
            Entries.push_back({I, Idx});
      ++Rounds;
      Order.shuffle(Entries);
    }
    auto [PairIdx, Launch] = Entries[Cursor];
    Cursor = (Cursor + 1) % Entries.size();
    ++Samples;
    PairState &S = *Pairs[PairIdx];
    const hecbench::LaunchSpec &L = S.P->Launches[Launch];
    uint64_t Ref = Refs.get(oneBlockKey(*S.P, Launch));
    double ReplicaS = T ? replica(S, L, Ref, T, Req, Rep) : 0;
    double Off = coldLaunch(S, S.Off, L, false, Ref, Rep);
    keepBest(BestOff, PairIdx, Launch, Off * 1e3);
    if (T)
      Unattributed.push_back((Off - ReplicaS) * 1e6);
    if (tierZeroCompiles(*S.P))
      keepBest(BestOn, PairIdx, Launch,
               coldLaunch(S, S.On, L, true, Ref, Rep) * 1e3);
    ++Req;
  }

  /// Empties every cache level and restores the program's initial memory.
  static void makeCold(PairState &S, ProgramInstance &I) {
    I.Jit->resetInMemoryState();
    I.Jit->cache().clearPersistent();
    std::memcpy(I.Dev->memory().data(), S.Snapshot.data(), S.Hwm);
  }

  double coldLaunch(PairState &S, ProgramInstance &I,
                    const hecbench::LaunchSpec &L, bool Tier, uint64_t Ref,
                    Report &Rep) {
    makeCold(S, I);
    JitRuntimeStats S0 = I.Jit->stats();
    std::vector<gpu::KernelArg> Args = I.args(L);
    std::string Err;
    Clock::time_point T0 = Clock::now();
    gpu::GpuError E =
        I.Jit->launchKernel(L.Symbol, gpu::Dim3{1, 1, 1}, L.Block, Args, &Err);
    double Seconds = secondsSince(T0);
    bool Same = digest(I.Dev->memory().data(), S.Hwm) == Ref;
    I.Jit->drain();
    JitRuntimeStats S1 = I.Jit->stats();
    uint64_t Final = S1.Compilations - S0.Compilations;
    uint64_t Tier0 = S1.Tier0Compiles - S0.Tier0Compiles;
    bool OneCompile = Tier ? Tier0 == 1 && Final == 1 : Tier0 == 0 && Final == 1;
    std::string What = S.P->Name + " @" + L.Symbol +
                       (Tier ? " (tier on)" : " (tier off)");
    Rep.operation(Tier ? "cold.launch_tier_on" : "cold.launch_tier_off",
                  E == gpu::GpuError::Success && Same && OneCompile,
                  What + (E != gpu::GpuError::Success ? ": " + Err
                          : !Same ? ": output differs from the interpreter"
                                  : ": unexpected compile count"));
    return Seconds;
  }

  /// The traced stage-by-stage replica of a cold tier-off launch. Returns
  /// the seconds its stages took.
  double replica(PairState &S, const hecbench::LaunchSpec &L, uint64_t Ref,
                 Tracer *T, uint64_t Req, Report &Rep) {
    ProgramInstance &I = S.Off;
    const ProgramBuild &P = *S.P;
    makeCold(S, I);
    std::vector<gpu::KernelArg> Args = I.args(L);
    SpecializationKey Key = specializationKey(P, L, Args);
    uint64_t Hash = computeSpecializationHash(Key);
    const TargetInfo &Target = getTarget(P.Arch);
    StageSample St;
    St.Nvptx = P.Arch == GpuArch::NvPtxSim;
    std::string Err;
    bool Ok = true;

    auto Link = [&](pir::Module &M, pir::Context &Ctx, pir::Function &F) {
      for (const auto &G : M.globals()) {
        if (!G->hasUses())
          continue;
        gpu::DevicePtr Addr = 0;
        gpu::gpuGetSymbolAddress(*I.Dev, &Addr, G->getName());
        G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
      }
      if (!Key.FoldedArgs.empty())
        specializeArguments(F, Key.FoldedArgs);
      specializeLaunchBounds(F, Key.LaunchBoundsThreads);
    };

    Clock::time_point T0 = Clock::now();
    double Parse = 0, SpecO3 = 0, Backend = 0;
    {
      ScopedSpan Root(T, "jit.cold_replica", Req);
      {
        ScopedSpan Sp(T, "cache.lookup", Req);
        Ok &= !I.Jit->cache().lookupEntry(Hash).has_value();
      }
      std::vector<uint8_t> Bitcode;
      {
        ScopedSpan Sp(T, "bitcode.fetch", Req);
        if (auto It = P.Prog.Image.JitSections.find(L.Symbol);
            It != P.Prog.Image.JitSections.end()) {
          Bitcode = It->second;
        } else {
          Bitcode.resize(P.Prog.Image.JitDataGlobals.at(L.Symbol).size());
          gpu::DevicePtr Addr = 0;
          gpu::gpuGetSymbolAddress(*I.Dev, &Addr, "__jit_bc_" + L.Symbol);
          Ok &= gpu::gpuMemcpyDtoH(*I.Dev, Bitcode.data(), Addr,
                                   Bitcode.size()) == gpu::GpuError::Success;
        }
      }
      St.Bytes = static_cast<double>(Bitcode.size());
      pir::Context Ctx;
      std::shared_ptr<const KernelModuleIndex> Index;
      std::unique_ptr<pir::Module> M;
      Clock::time_point P0 = Clock::now();
      {
        ScopedSpan Sp(T, "bitcode.parse", Req);
        Index = KernelModuleIndex::create(Bitcode, Err);
        if (Index)
          M = Index->materialize(Ctx, L.Symbol, nullptr);
      }
      Parse = secondsSince(P0);
      pir::Function *F = M ? M->getFunction(L.Symbol) : nullptr;
      if (!F) {
        Rep.operation("cold.replica", false,
                      P.Name + ": replica could not materialize @" +
                                 L.Symbol + ": " + Err);
        return secondsSince(T0);
      }
      Clock::time_point S0 = Clock::now();
      {
        ScopedSpan Sp(T, "jit.specialize", Req);
        Link(*M, Ctx, *F);
      }
      std::unique_ptr<PassManager> PM;
      {
        ScopedSpan Sp(T, "transforms.o3", Req);
        PM = buildO3Pipeline(JitConfig().O3);
        PM->run(*M);
      }
      SpecO3 = secondsSince(S0);
      for (const PassStatistics &PS : PM->statistics()) {
        St.PassSeconds[PS.Name] += PS.Seconds;
        St.Invocations += PS.Invocations;
      }
      for (pir::BasicBlock &BB : *F)
        St.IrInsts += static_cast<double>(BB.size());
      {
        ScopedSpan Sp(T, "analysis.analyze", Req);
        Ok &= pir::analysis::analyzeKernel(*F).clean();
      }
      std::vector<uint8_t> Object;
      Clock::time_point B0 = Clock::now();
      {
        ScopedSpan Sp(T, "codegen.backend", Req);
        Object = compileKernelToObject(*F, Target, &St.BS);
      }
      Backend = secondsSince(B0);
      St.ObjectBytes = static_cast<double>(Object.size());
      St.SpillSlots = St.BS.RA.SpillSlots;
      {
        ScopedSpan Sp(T, "cache.disk_insert", Req);
        I.Jit->cache().insert(Hash, Object, CodeTier::Final,
                              jitPipelineFingerprint(CodeTier::Final));
      }
      gpu::LoadedKernel *K = nullptr;
      {
        ScopedSpan Sp(T, "gpu.module_load", Req);
        Ok &= gpu::gpuModuleLoad(*I.Dev, &K, Object, &Err) ==
              gpu::GpuError::Success;
      }
      if (K) {
        ScopedSpan Sp(T, "gpu.launch", Req);
        Ok &= gpu::gpuLaunchKernel(*I.Dev, *K, gpu::Dim3{1, 1, 1}, L.Block,
                                   Args, &Err) == gpu::GpuError::Success;
      }
    }
    double Seconds = secondsSince(T0);
    Ok &= digest(I.Dev->memory().data(), S.Hwm) == Ref;
    Rep.operation("cold.replica", Ok,
                  P.Name + " @" + L.Symbol + " (stage replica): " + Err);

    // The Tier-0 compile: fast O3 preset and fast register allocation.
    if (tierZeroCompiles(P)) {
      ScopedSpan Sp(T, "jit.tier0", Req);
      pir::Context Ctx;
      std::string IndexErr;
      auto Index = KernelModuleIndex::create(
          P.Prog.Image.JitSections.count(L.Symbol)
              ? P.Prog.Image.JitSections.at(L.Symbol)
              : P.Prog.Image.JitDataGlobals.at(L.Symbol),
          IndexErr);
      auto M = Index ? Index->materialize(Ctx, L.Symbol, nullptr) : nullptr;
      if (pir::Function *F = M ? M->getFunction(L.Symbol) : nullptr) {
        Link(*M, Ctx, *F);
        O3Options Fast = JitConfig().O3;
        Fast.Preset = O3Preset::Fast;
        buildO3Pipeline(Fast)->run(*M);
        (void)pir::analysis::analyzeKernel(*F);
        BackendOptions BO;
        BO.RegAlloc.Fast = true;
        (void)compileKernelToObject(*F, Target, nullptr, BO);
      }
    }
    Stages.push_back(St);
    StageUs.push_back({Parse * 1e6, SpecO3 * 1e6, Backend * 1e6});
    return Seconds;
  }

  ProgramSet &Set;
  const ReferenceStore &Refs;
  RunOptions O;
  unsigned TotalRounds;
  std::vector<std::unique_ptr<PairState>> Pairs;
  using EntryTimes = std::map<std::pair<size_t, size_t>, double>;
  static void keepBest(EntryTimes &M, size_t Pair, size_t Launch, double V) {
    auto [It, New] = M.emplace(std::make_pair(Pair, Launch), V);
    if (!New)
      It->second = std::min(It->second, V);
  }
  static std::vector<double> values(const EntryTimes &M) {
    std::vector<double> Out;
    for (const auto &KV : M)
      Out.push_back(KV.second);
    return Out;
  }

  std::vector<std::pair<size_t, size_t>> Entries; ///< (pair, launch)
  Rng Order{0};
  size_t Cursor = 0;
  size_t Samples = 0, Total = 0; ///< entries sampled so far / in the run
  uint64_t Req = 0;
  unsigned Rounds = 0;
  EntryTimes BestOff, BestOn;
  std::vector<double> Unattributed;
  std::vector<StageSample> Stages;
  std::vector<std::array<double, 3>> StageUs;
};

} // namespace

std::unique_ptr<Phase> makeJitColdPhase(ProgramSet &Set,
                                        const ReferenceStore &Refs,
                                        const RunOptions &O, unsigned Rounds) {
  return std::make_unique<JitColdPhase>(Set, Refs, O, Rounds);
}

} // namespace perfbench
