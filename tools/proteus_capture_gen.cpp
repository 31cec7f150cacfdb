//===- proteus_capture_gen.cpp - regression corpus generator --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the checked-in differential regression corpus (tests/corpus):
//
//   proteus-capture-gen <output-dir>
//
// Each corpus entry is a capture artifact (.pcap) recorded by launching a
// deterministic kernel once through a capture-enabled JitRuntime — exactly
// the PROTEUS_CAPTURE=on path — paired with a .expect file holding the
// kernel sanitizer findings for the artifact's pruned bitcode (empty file =
// lint-clean). The replay_corpus_check ctest replays every artifact with
// proteus-replay (byte-identical output + matching specialization hash) and
// re-lints the dumped PIR against the .expect lines.
//
// The corpus spans the seeded-bug kernels of the analysis suite (divergent
// barrier, shared-scratch race), the clean daxpy running example, a fixed-
// seed random kernel, and two hecbench programs (feykac, rsbench), each on
// both simulated architectures. Every input is fixed (seeds, buffer
// contents, geometry), so regeneration is reproducible.
//
// Exit status: 0 when every entry was written, 1 on any failure.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelAnalyzer.h"
#include "bitcode/ModuleIndex.h"
#include "capture/Artifact.h"
#include "codegen/Target.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "tests/RandomKernel.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace proteus;
using namespace proteus::gpu;

namespace {

const char *archShortName(GpuArch Arch) {
  return Arch == GpuArch::AmdGcnSim ? "amdgcn" : "nvptx";
}

// -- Corpus kernels ----------------------------------------------------------
//
// Local copies of the canonical test-suite kernels (TestUtil.h pulls in
// gtest, so the builders are restated here; shapes must stay in sync with
// the analysis suite for the .expect files to stay meaningful).

/// y[i] = a * x[i] + y[i] — the paper's running example, lint-clean.
void buildDaxpy(pir::Module &M) {
  using namespace pir;
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction(
      "daxpy", Ctx.getVoidTy(),
      {Ctx.getF64Ty(), Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty()},
      {"a", "x", "y", "n"}, FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{1, 4}});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *I = B.createGlobalThreadIdX("i");
  B.createCondBr(B.createICmp(ICmpPred::SLT, I, F->getArg(3), "c"), Body,
                 Exit);
  B.setInsertPoint(Body);
  Type *F64 = Ctx.getF64Ty();
  Value *Xp = B.createGep(F64, F->getArg(1), I, "xp");
  Value *Yp = B.createGep(F64, F->getArg(2), I, "yp");
  Value *Ax = B.createFMul(F->getArg(0), B.createLoad(F64, Xp, "xv"), "ax");
  B.createStore(B.createFAdd(Ax, B.createLoad(F64, Yp, "yv"), "r"), Yp);
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
}

/// if (tid < 16) { barrier; ... } — one divergent-barrier finding.
void buildDivergentBarrier(pir::Module &M) {
  using namespace pir;
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F =
      M.createFunction("divbar", Ctx.getVoidTy(),
                       {Ctx.getPtrTy(), Ctx.getI32Ty()}, {"out", "n"},
                       FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{2}});
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  Value *Tid = B.createThreadIdx(0, "tid");
  B.createCondBr(B.createICmp(ICmpPred::SLT, Tid, B.getInt32(16), "c"), Then,
                 Exit);
  B.setInsertPoint(Then);
  B.createBarrier();
  B.createStore(B.getInt32(1),
                B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "p"));
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
}

/// Divergent scratch store with no barrier before the load — the canonical
/// shared-memory race.
void buildScratchRace(pir::Module &M) {
  using namespace pir;
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F =
      M.createFunction("scratch", Ctx.getVoidTy(),
                       {Ctx.getPtrTy(), Ctx.getI32Ty()}, {"out", "n"},
                       FunctionKind::Kernel);
  F->setJitAnnotation(JitAnnotation{{2}});
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Buf = B.createAlloca(Ctx.getI32Ty(), 64, "buf");
  Value *Tid = B.createThreadIdx(0, "tid");
  Value *Idx = B.createSRem(Tid, B.getInt32(4), "mod");
  B.createStore(B.getInt32(1), B.createGep(Ctx.getI32Ty(), Buf, Idx, "p"));
  Value *Q = B.createGep(Ctx.getI32Ty(), Buf, B.getInt32(0), "q");
  Value *V = B.createLoad(Ctx.getI32Ty(), Q, "v");
  B.createStore(V, B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid, "outp"));
  B.createRet();
}

// -- Capture harness ---------------------------------------------------------

/// Picks the first-launch artifact (sequence 0) out of \p TmpDir, copies it
/// to \p OutPath, and removes the temporary directory. Returns an error
/// string, empty on success.
std::string takeFirstArtifact(const std::string &TmpDir,
                              const std::string &OutPath) {
  std::string First;
  for (const std::string &Name : fs::listFiles(TmpDir)) {
    if (Name.size() < 7 || Name.compare(Name.size() - 7, 7, "-0.pcap") != 0)
      continue;
    First = Name;
    break;
  }
  if (First.empty()) {
    fs::removeTree(TmpDir);
    return "capture produced no sequence-0 artifact";
  }
  auto Bytes = fs::readFile(TmpDir + "/" + First);
  fs::removeTree(TmpDir);
  if (!Bytes)
    return "cannot read back captured artifact " + First;
  if (!fs::writeFileAtomic(OutPath, *Bytes))
    return "cannot write " + OutPath;
  return "";
}

/// AOT-compiles \p M with the Proteus extensions, launches \p Symbol once
/// through a capture-enabled JitRuntime, and moves the recorded artifact to
/// \p OutPath.
std::string captureKernel(
    pir::Module &M, const std::string &Symbol, GpuArch Arch, Dim3 Grid,
    Dim3 Block,
    const std::function<std::vector<KernelArg>(Device &)> &SetupArgs,
    const std::string &OutPath) {
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  std::string TmpDir = fs::makeTempDirectory("proteus-capture-gen");
  JitConfig JC;
  JC.UsePersistentCache = false;
  JC.Capture = true;
  JC.CaptureDir = TmpDir;
  JC.CaptureRing = 256;

  Device Dev(getTarget(Arch), 1 << 22);
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  if (!LP.ok())
    return "program load failed: " + LP.error();

  std::vector<KernelArg> Args = SetupArgs(Dev);
  std::string Err;
  if (LP.launch(Symbol, Grid, Block, Args, &Err) != GpuError::Success)
    return "launch failed: " + (Err.empty() ? "unknown error" : Err);
  Jit.drain();
  return takeFirstArtifact(TmpDir, OutPath);
}

/// Runs a hecbench program in Proteus mode with capture on and keeps its
/// first launch's artifact.
std::string captureBenchmark(const hecbench::Benchmark &B, GpuArch Arch,
                             const std::string &OutPath) {
  std::string TmpDir = fs::makeTempDirectory("proteus-capture-gen");
  hecbench::RunConfig Config;
  Config.Arch = Arch;
  Config.Mode = hecbench::ExecMode::Proteus;
  Config.ColdCache = true;
  Config.Jit.UsePersistentCache = false;
  Config.Jit.Capture = true;
  Config.Jit.CaptureDir = TmpDir;
  Config.Jit.CaptureRing = 4096;
  hecbench::RunResult R = hecbench::runBenchmark(B, Config);
  if (!R.Ok) {
    fs::removeTree(TmpDir);
    return "benchmark run failed: " + R.Error;
  }
  return takeFirstArtifact(TmpDir, OutPath);
}

/// Writes <base>.expect next to the artifact: the sanitizer findings for
/// the artifact's pruned bitcode, computed through the exact pipeline the
/// corpus check uses (materialize -> print -> parse -> analyze), one
/// rendered finding per line. An empty file records "lint-clean".
std::string writeExpectations(const std::string &ArtifactPath,
                              const std::string &ExpectPath) {
  std::string Error;
  auto A = capture::readArtifactFile(ArtifactPath, &Error);
  if (!A)
    return "cannot reload " + ArtifactPath + ": " + Error;
  std::shared_ptr<const KernelModuleIndex> Index =
      KernelModuleIndex::create(A->Bitcode, Error);
  if (!Index)
    return "corrupt artifact bitcode: " + Error;
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M =
      Index->materialize(Ctx, A->KernelSymbol, nullptr);
  if (!M)
    return "artifact bitcode lacks kernel @" + A->KernelSymbol;

  // Round-trip through the textual form so block/value names match what
  // pir-lint will see when it re-parses proteus-replay --dump-pir output.
  pir::Context Ctx2;
  pir::ParseResult PR = pir::parseModule(Ctx2, pir::printModule(*M));
  if (!PR)
    return "printed PIR does not re-parse: " + PR.Error;

  pir::analysis::AnalysisReport AR = pir::analysis::analyzeModule(*PR.M);
  std::string Text;
  for (const pir::analysis::LintDiagnostic &D : AR.Diags)
    Text += D.render() + "\n";
  std::vector<uint8_t> Bytes(Text.begin(), Text.end());
  if (!fs::writeFileAtomic(ExpectPath, Bytes))
    return "cannot write " + ExpectPath;
  return "";
}

struct CorpusCase {
  std::string Name;
  std::function<std::string(GpuArch, const std::string &)> Capture;
};

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: proteus-capture-gen <output-dir>\n");
    return 2;
  }
  std::string OutDir = Argv[1];
  if (!fs::createDirectories(OutDir)) {
    std::fprintf(stderr, "proteus-capture-gen: cannot create %s\n",
                 OutDir.c_str());
    return 1;
  }

  auto SimpleKernel =
      [](void (*Build)(pir::Module &), const std::string &Symbol, Dim3 Grid,
         Dim3 Block,
         std::function<std::vector<KernelArg>(Device &)> SetupArgs) {
        return [=](GpuArch Arch, const std::string &OutPath) {
          pir::Context Ctx;
          pir::Module M(Ctx, Symbol + "_corpus");
          Build(M);
          return captureKernel(M, Symbol, Arch, Grid, Block, SetupArgs,
                               OutPath);
        };
      };

  std::vector<CorpusCase> Cases;
  Cases.push_back(
      {"daxpy", SimpleKernel(buildDaxpy, "daxpy", Dim3{2, 1, 1},
                             Dim3{32, 1, 1}, [](Device &Dev) {
                               DevicePtr X = 0, Y = 0;
                               gpuMalloc(Dev, &X, 64 * 8);
                               gpuMalloc(Dev, &Y, 64 * 8);
                               std::vector<double> Init(64);
                               for (size_t I = 0; I != 64; ++I)
                                 Init[I] = 0.25 * static_cast<double>(I) - 3.0;
                               gpuMemcpyHtoD(Dev, X, Init.data(), 64 * 8);
                               for (size_t I = 0; I != 64; ++I)
                                 Init[I] = 1.5 - 0.125 * static_cast<double>(I);
                               gpuMemcpyHtoD(Dev, Y, Init.data(), 64 * 8);
                               return std::vector<KernelArg>{
                                   {pir::sem::boxF64(3.0)}, {X}, {Y}, {64}};
                             })});
  Cases.push_back(
      {"divbar", SimpleKernel(buildDivergentBarrier, "divbar", Dim3{1, 1, 1},
                              Dim3{32, 1, 1}, [](Device &Dev) {
                                DevicePtr Out = 0;
                                gpuMalloc(Dev, &Out, 32 * 4);
                                return std::vector<KernelArg>{{Out}, {32}};
                              })});
  Cases.push_back(
      {"scratch", SimpleKernel(buildScratchRace, "scratch", Dim3{1, 1, 1},
                               Dim3{32, 1, 1}, [](Device &Dev) {
                                 DevicePtr Out = 0;
                                 gpuMalloc(Dev, &Out, 32 * 4);
                                 return std::vector<KernelArg>{{Out}, {32}};
                               })});
  Cases.push_back({"rk7", [](GpuArch Arch, const std::string &OutPath) {
                     pir::Context Ctx;
                     pir::Module M(Ctx, "rk7_corpus");
                     proteus_test::buildRandomKernelInto(M, 7);
                     return captureKernel(
                         M, "rk", Arch, Dim3{2, 1, 1}, Dim3{32, 1, 1},
                         [](Device &Dev) {
                           DevicePtr In = 0, Out = 0;
                           gpuMalloc(Dev, &In, 64 * 8);
                           gpuMalloc(Dev, &Out, 64 * 8);
                           std::vector<double> Init(64);
                           for (size_t I = 0; I != 64; ++I)
                             Init[I] = 0.5 * static_cast<double>(I) - 8.0;
                           gpuMemcpyHtoD(Dev, In, Init.data(), 64 * 8);
                           return std::vector<KernelArg>{
                               {In}, {Out}, {64}, {pir::sem::boxF64(1.25)}, {5}};
                         },
                         OutPath);
                   }});
  Cases.push_back({"feykac", [](GpuArch Arch, const std::string &OutPath) {
                     return captureBenchmark(*hecbench::makeFeykacBenchmark(),
                                             Arch, OutPath);
                   }});
  Cases.push_back({"rsbench", [](GpuArch Arch, const std::string &OutPath) {
                     return captureBenchmark(*hecbench::makeRsbenchBenchmark(),
                                             Arch, OutPath);
                   }});

  size_t Failures = 0, Written = 0;
  for (const CorpusCase &Case : Cases) {
    for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
      std::string Base =
          OutDir + "/" + Case.Name + "-" + archShortName(Arch);
      std::string Err = Case.Capture(Arch, Base + ".pcap");
      if (Err.empty())
        Err = writeExpectations(Base + ".pcap", Base + ".expect");
      if (!Err.empty()) {
        std::fprintf(stderr, "proteus-capture-gen: %s-%s: %s\n",
                     Case.Name.c_str(), archShortName(Arch), Err.c_str());
        ++Failures;
        continue;
      }
      std::printf("proteus-capture-gen: wrote %s.pcap\n", Base.c_str());
      ++Written;
    }
  }
  std::printf("proteus-capture-gen: %zu artifact(s) written, %zu failed\n",
              Written, Failures);
  return Failures ? 1 : 0;
}
