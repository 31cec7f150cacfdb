//===- roofline_policy.cpp - bottleneck-aware tuning policy gains ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures what the static roofline classifier buys the variant manager. A
// memory-bound streaming kernel launch is captured, then the same artifact
// is tuned twice from cold caches: once with PROTEUS_POLICY off (the full
// unpruned variant race) and once with the policy on (the MemoryBound
// verdict prunes every tuning axis, so only the recorded default races).
// The policy run must classify the kernel MemoryBound, prune at least half
// of the unpruned race's trials (counted exactly by policy.pruned_trials),
// and still promote a winner within 2% of the unpruned race's winner — the
// pruned axes genuinely could not pay off.
//
// The checked-in corpus doubles as the classifier's accuracy gate: every
// tests/corpus artifact is classified on both simulated targets and
// compared against the roofline class pinned in its .expect file;
// misclassifications must be zero.
//
// Emits the self-validated BENCH_roofline.json. `--smoke` runs the same
// gates (the race is already small; smoke only labels the rows) for the
// bench_smoke_roofline ctest.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Roofline.h"
#include "bitcode/ModuleIndex.h"
#include "capture/Artifact.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/OpSemantics.h"
#include "jit/AutoTuner.h"
#include "jit/Program.h"
#include "support/FileSystem.h"

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

constexpr uint32_t N = 8192;     // elements
constexpr uint32_t Block0 = 256; // recorded (default) block size

/// stream(in, out, n, sf): guarded gtid < n, out[gtid] = in[gtid] * sf +
/// 1.0. Two FLOPs against 16 bytes moved per thread — arithmetic
/// intensity 0.125, far under both simulated ridges, so the classifier
/// must call it MemoryBound everywhere. The n argument is jit-annotated so
/// the launch specializes and captures like production kernels.
std::unique_ptr<Module> buildStreamKernel(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "roofline_policy_app");
  IRBuilder B(Ctx);
  Type *F64 = Ctx.getF64Ty();
  Function *F = M->createFunction(
      "stream", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty(), F64},
      {"in", "out", "n", "sf"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{3}});
  Value *In = F->getArg(0), *Out = F->getArg(1), *Nv = F->getArg(2);
  Value *Sf = F->getArg(3);

  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  Value *Gtid = B.createGlobalThreadIdX();
  B.createCondBr(B.createICmp(ICmpPred::SLT, Gtid, Nv), Body, Exit);

  B.setInsertPoint(Body);
  Value *V = B.createLoad(F64, B.createGep(F64, In, Gtid), "v");
  Value *Scaled = B.createFMul(V, Sf, "scaled");
  Value *Biased = B.createFAdd(Scaled, B.getDouble(1.0), "biased");
  B.createStore(Biased, B.createGep(F64, Out, Gtid));
  B.createRet();

  B.setInsertPoint(Exit);
  B.createRet();
  return M;
}

/// Classifies \p A's pruned bitcode on \p T exactly the way pir-roofline
/// does: purely static, no geometry or register feedback, so the verdict
/// matches the corpus goldens byte for byte.
std::optional<pir::analysis::BottleneckClass>
classifyArtifactStatic(const capture::CaptureArtifact &A,
                       const TargetInfo &T) {
  std::string Error;
  std::shared_ptr<const KernelModuleIndex> Index =
      KernelModuleIndex::create(A.Bitcode, Error);
  if (!Index)
    return std::nullopt;
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M =
      Index->materialize(Ctx, A.KernelSymbol, nullptr);
  pir::Function *F = M ? M->getFunction(A.KernelSymbol) : nullptr;
  if (!F)
    return std::nullopt;
  return pir::analysis::classifyKernel(*F, T).Class;
}

/// Pulls "amdgcn-sim=<C> nvptx-sim=<C>" off an .expect file's
/// "roofline:" line. Returns false when the file has no such line.
bool readExpectedClasses(const std::string &ExpectPath, std::string &Amd,
                         std::string &Nv) {
  auto Bytes = fs::readFile(ExpectPath);
  if (!Bytes)
    return false;
  std::string Text(Bytes->begin(), Bytes->end());
  size_t Pos = Text.find("roofline:");
  if (Pos == std::string::npos)
    return false;
  size_t End = Text.find('\n', Pos);
  std::string Line = Text.substr(Pos, End == std::string::npos
                                          ? std::string::npos
                                          : End - Pos);
  auto Field = [&Line](const char *Key) {
    std::string K = std::string(Key) + "=";
    size_t P = Line.find(K);
    if (P == std::string::npos)
      return std::string();
    size_t S = P + K.size();
    size_t E = Line.find_first_of(" \t\r", S);
    return Line.substr(S, E == std::string::npos ? std::string::npos
                                                 : E - S);
  };
  Amd = Field("amdgcn-sim");
  Nv = Field("nvptx-sim");
  return !Amd.empty() && !Nv.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  Context Ctx;
  std::unique_ptr<Module> M = buildStreamKernel(Ctx);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  std::string CacheOff = fs::makeTempDirectory("proteus-roofline-off");
  std::string CacheOn = fs::makeTempDirectory("proteus-roofline-on");
  std::string CaptureDir = fs::makeTempDirectory("proteus-roofline-cap");

  int Status = 0;
  capture::CaptureArtifact A;
  VariantTuningResult Off, On;
  JitRuntimeStats OnStats;
  std::optional<PolicyVerdict> Verdict;

  // Cold race 1: policy off — capture the launch, then the full unpruned
  // variant race over the artifact.
  {
    JitConfig JC;
    JC.CacheDir = CacheOff;
    JC.Capture = true;
    JC.CaptureDir = CaptureDir;

    Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: program load failed: %s\n",
                   LP.error().c_str());
      return 1;
    }
    DevicePtr In = 0, Out = 0;
    gpuMalloc(Dev, &In, N * 8);
    gpuMalloc(Dev, &Out, N * 8);
    std::vector<double> H(N, 2.5);
    gpuMemcpyHtoD(Dev, In, H.data(), N * 8);
    std::vector<KernelArg> Args = {{In}, {Out}, {N}, {sem::boxF64(0.5)}};

    std::string Error;
    if (LP.launch("stream", Dim3{N / Block0, 1, 1}, Dim3{Block0, 1, 1},
                  Args, &Error) != GpuError::Success) {
      std::fprintf(stderr, "FATAL: capture launch failed: %s\n",
                   Error.c_str());
      return 1;
    }
    Jit.drain();
    std::vector<std::string> Files = fs::listFiles(CaptureDir);
    if (Files.size() != 1) {
      std::fprintf(stderr, "FATAL: expected 1 capture artifact, found %zu\n",
                   Files.size());
      return 1;
    }
    std::string ReadError;
    std::optional<capture::CaptureArtifact> Read =
        capture::readArtifactFile(CaptureDir + "/" + Files[0], &ReadError);
    if (!Read) {
      std::fprintf(stderr, "FATAL: cannot read artifact: %s\n",
                   ReadError.c_str());
      return 1;
    }
    A = *Read;

    VariantManager VM(Jit);
    Off = VM.tuneArtifact(A);
    if (!Off.Ok) {
      std::fprintf(stderr, "FATAL: unpruned race failed: %s\n",
                   Off.Error.c_str());
      return 1;
    }
    Jit.drain();
  }

  // Cold race 2: policy on, fresh cache — the roofline verdict must prune
  // the axes before the budget cap, leaving only the recorded default.
  {
    JitConfig JC;
    JC.CacheDir = CacheOn;
    JC.Policy = true;

    Device Dev(getTarget(GpuArch::AmdGcnSim), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    if (!LP.ok()) {
      std::fprintf(stderr, "FATAL: policy program load failed: %s\n",
                   LP.error().c_str());
      return 1;
    }
    VariantManager VM(Jit);
    On = VM.tuneArtifact(A);
    if (!On.Ok) {
      std::fprintf(stderr, "FATAL: pruned race failed: %s\n",
                   On.Error.c_str());
      return 1;
    }
    Jit.drain();
    OnStats = Jit.stats();
    Verdict = Jit.policy()->verdictFor(A.KernelSymbol, A.Arch);
  }

  fs::removeTree(CaptureDir);
  fs::removeTree(CacheOff);
  fs::removeTree(CacheOn);

  // Corpus accuracy: classify every checked-in artifact on both targets
  // and compare against the classes pinned in the .expect files.
  const std::string CorpusDir = PROTEUS_CORPUS_DIR;
  unsigned CorpusTotal = 0, CorpusMismatch = 0;
  {
    std::vector<std::string> Entries = fs::listFiles(CorpusDir);
    std::sort(Entries.begin(), Entries.end());
    for (const std::string &Name : Entries) {
      if (Name.size() < 5 ||
          Name.compare(Name.size() - 5, 5, ".pcap") != 0)
        continue;
      const std::string Base = Name.substr(0, Name.size() - 5);
      std::string ReadError;
      std::optional<capture::CaptureArtifact> CA =
          capture::readArtifactFile(CorpusDir + "/" + Name, &ReadError);
      if (!CA) {
        std::fprintf(stderr, "FAIL: corpus artifact %s unreadable: %s\n",
                     Name.c_str(), ReadError.c_str());
        ++CorpusMismatch;
        continue;
      }
      std::string WantAmd, WantNv;
      if (!readExpectedClasses(CorpusDir + "/" + Base + ".expect", WantAmd,
                               WantNv)) {
        std::fprintf(stderr,
                     "FAIL: %s.expect pins no roofline classification\n",
                     Base.c_str());
        ++CorpusMismatch;
        continue;
      }
      auto GotAmd = classifyArtifactStatic(*CA, getAmdGcnSimTarget());
      auto GotNv = classifyArtifactStatic(*CA, getNvPtxSimTarget());
      ++CorpusTotal;
      bool Match =
          GotAmd && GotNv &&
          WantAmd == pir::analysis::bottleneckClassName(*GotAmd) &&
          WantNv == pir::analysis::bottleneckClassName(*GotNv);
      if (!Match) {
        std::fprintf(
            stderr,
            "FAIL: %s classified %s/%s, .expect pins %s/%s\n",
            Base.c_str(),
            GotAmd ? pir::analysis::bottleneckClassName(*GotAmd)
                   : "<none>",
            GotNv ? pir::analysis::bottleneckClassName(*GotNv) : "<none>",
            WantAmd.c_str(), WantNv.c_str());
        ++CorpusMismatch;
      }
    }
  }

  const size_t TrialsOff = Off.Trials.size();
  const size_t TrialsOn = On.Trials.size();
  const size_t Pruned = TrialsOff > TrialsOn ? TrialsOff - TrialsOn : 0;
  const double PrunedFraction =
      TrialsOff ? static_cast<double>(Pruned) / TrialsOff : 0;
  const double WinnerRatio =
      Off.WinnerSeconds > 0 ? On.WinnerSeconds / Off.WinnerSeconds : 0;

  std::printf("roofline_policy: %u-thread stream kernel\n", N);
  std::printf("  verdict  %s (ai=%.4g, ridge=%.4g)\n",
              Verdict ? pir::analysis::bottleneckClassName(Verdict->Class)
                      : "<none>",
              Verdict ? Verdict->ArithmeticIntensity : 0.0,
              Verdict ? Verdict->RidgeFlopsPerByte : 0.0);
  std::printf("  race     off=%zu trials (winner %s %.3f us), on=%zu "
              "trials (winner %s %.3f us)\n",
              TrialsOff, Off.Winner.Name.c_str(), Off.WinnerSeconds * 1e6,
              TrialsOn, On.Winner.Name.c_str(), On.WinnerSeconds * 1e6);
  std::printf("  pruned   %zu variants (%.0f%%), policy.pruned_trials=%llu\n",
              Pruned, PrunedFraction * 100,
              static_cast<unsigned long long>(OnStats.PolicyPrunedTrials));
  std::printf("  corpus   %u artifact(s), %u misclassified\n", CorpusTotal,
              CorpusMismatch);

  JsonReporter Report("roofline");
  Report.beginRow("policy_race")
      .label("arch", "amdgcn-sim")
      .label("mode", Smoke ? "smoke" : "full")
      .label("class",
             Verdict ? pir::analysis::bottleneckClassName(Verdict->Class)
                     : "<none>")
      .metric("trials_unpruned", static_cast<double>(TrialsOff))
      .metric("trials_pruned", static_cast<double>(TrialsOn))
      .metric("pruned_variants", static_cast<double>(Pruned))
      .metric("pruned_fraction", PrunedFraction)
      .metric("policy_pruned_trials",
              static_cast<double>(OnStats.PolicyPrunedTrials))
      .metric("policy_classified",
              static_cast<double>(OnStats.PolicyClassified))
      .metric("winner_unpruned_us", Off.WinnerSeconds * 1e6)
      .metric("winner_pruned_us", On.WinnerSeconds * 1e6)
      .metric("winner_ratio", WinnerRatio)
      .metric("tuning_sim_ms_unpruned", Off.TuningSeconds * 1e3)
      .metric("tuning_sim_ms_pruned", On.TuningSeconds * 1e3);
  Report.beginRow("corpus_accuracy")
      .label("mode", Smoke ? "smoke" : "full")
      .metric("artifacts", CorpusTotal)
      .metric("misclassified", CorpusMismatch);
  std::string WriteError;
  if (!Report.write("BENCH_roofline.json", &WriteError)) {
    std::fprintf(stderr, "FATAL: %s\n", WriteError.c_str());
    return 1;
  }

  // Acceptance gates.
  if (!Verdict ||
      Verdict->Class != pir::analysis::BottleneckClass::MemoryBound) {
    std::fprintf(stderr, "FAIL: stream kernel not classified MemoryBound\n");
    Status = 1;
  }
  if (TrialsOff < 3) {
    std::fprintf(stderr,
                 "FAIL: unpruned race only raced %zu variants, want >= 3\n",
                 TrialsOff);
    Status = 1;
  }
  if (PrunedFraction < 0.5) {
    std::fprintf(stderr,
                 "FAIL: policy pruned %.0f%% of trials, want >= 50%%\n",
                 PrunedFraction * 100);
    Status = 1;
  }
  if (OnStats.PolicyPrunedTrials != Pruned) {
    std::fprintf(stderr,
                 "FAIL: policy.pruned_trials=%llu, but the races differ by "
                 "%zu trials\n",
                 static_cast<unsigned long long>(OnStats.PolicyPrunedTrials),
                 Pruned);
    Status = 1;
  }
  if (Off.WinnerSeconds > 0 && On.WinnerSeconds > Off.WinnerSeconds * 1.02) {
    std::fprintf(stderr,
                 "FAIL: pruned winner %.6g us more than 2%% slower than "
                 "unpruned winner %.6g us\n",
                 On.WinnerSeconds * 1e6, Off.WinnerSeconds * 1e6);
    Status = 1;
  }
  if (CorpusTotal == 0 || CorpusMismatch != 0) {
    std::fprintf(stderr, "FAIL: corpus accuracy gate (%u/%u misclassified)\n",
                 CorpusMismatch, CorpusTotal);
    Status = 1;
  }
  return Status;
}
