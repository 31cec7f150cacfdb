//===- autotune_launch.cpp - launch auto-tuning example -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The paper's section 6 outlook ("exploring runtime optimizations like
// kernel scheduling and auto-tuning") running on the reproduction: the
// RSBENCH lookup kernel is launch-bounds-sensitive (register pressure), so
// the best block size is not obvious. The program captures one launch of
// it, and the variant manager races block sizes and pipeline variants on
// replays of that capture: every trial runs on a throwaway device rebuilt
// from the captured memory, and its output is checked against the
// recorded one. The fastest correct variant is installed on the live
// device and its decision persisted, so a later run tunes nothing.
//
// Build and run:   ./examples/autotune_launch
//
//===----------------------------------------------------------------------===//

#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/OpSemantics.h"
#include "ir/Module.h"
#include "jit/AutoTuner.h"
#include "support/FileSystem.h"

#include <cstdio>

using namespace proteus;
using namespace proteus::gpu;

namespace {

int tune(const std::string &CacheDir, const std::string &CaptureDir) {
  // Reuse the RSBENCH module: one annotated kernel with a wide accumulator
  // band whose spill behaviour depends on launch bounds.
  auto Bench = hecbench::makeRsbenchBenchmark();
  pir::Context Ctx;
  auto M = Bench->buildModule(Ctx);

  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*M, AO);

  Device Dev(getAmdGcnSimTarget(), 1 << 22);
  JitConfig JC;
  JC.CacheDir = CacheDir;
  JC.Capture = true;
  JC.CaptureDir = CaptureDir;
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  if (!LP.ok()) {
    std::fprintf(stderr, "load failed: %s\n", LP.error().c_str());
    return 1;
  }

  constexpr uint32_t Lookups = 1024;
  DevicePtr Energies = 0, Poles = 0, Xs = 0;
  gpuMalloc(Dev, &Energies, Lookups * 8);
  gpuMalloc(Dev, &Poles, 5 * 16 * 2 * 8);
  gpuMalloc(Dev, &Xs, Lookups * 4 * 8);
  std::vector<double> H(Lookups);
  for (uint32_t I = 0; I != Lookups; ++I)
    H[I] = 0.1 + 0.02 * I;
  gpuMemcpyHtoD(Dev, Energies, H.data(), Lookups * 8);

  std::vector<KernelArg> Args = {
      {Energies}, {Poles}, {Xs},
      {Lookups},  {5},     {16},
      {pir::sem::boxF64(0.25)}};

  // One launch records the capture artifact the race replays.
  std::string Error;
  if (LP.launch("xs_lookup", Dim3{Lookups / 128, 1, 1}, Dim3{128, 1, 1}, Args,
                &Error) != GpuError::Success) {
    std::fprintf(stderr, "launch failed: %s\n", Error.c_str());
    return 1;
  }
  Jit.drain();
  std::vector<std::string> Files = fs::listFiles(CaptureDir);
  std::optional<capture::CaptureArtifact> A;
  if (Files.size() == 1)
    A = capture::readArtifactFile(CaptureDir + "/" + Files[0], &Error);
  if (!A) {
    std::fprintf(stderr, "no capture artifact (%zu files): %s\n",
                 Files.size(), Error.c_str());
    return 1;
  }

  VariantManager VM(Jit);
  VariantTuningResult R = VM.tuneArtifact(*A);
  if (!R.Ok) {
    std::fprintf(stderr, "tuning failed: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("auto-tuning xs_lookup over %u work items on %s:\n\n", Lookups,
              Dev.target().Name.c_str());
  std::printf("  %-14s %-8s %-14s %s\n", "variant", "block", "kernel (s)",
              "output");
  for (const VariantTrial &T : R.Trials)
    std::printf("  %-14s %-8u %-14.9f %s%s\n", T.Spec.Name.c_str(),
                T.Spec.Block.X, T.KernelSeconds,
                T.OutputMatch ? "match" : "MISMATCH",
                T.Spec.Name == R.Winner.Name ? "  <== winner" : "");
  std::printf("\nwinner %s: %.9f s against %.9f s for the recorded launch;\n"
              "installed on the device and persisted, so the next run races "
              "nothing.\n",
              R.Winner.Name.c_str(), R.WinnerSeconds, R.BaselineSeconds);
  return 0;
}

} // namespace

int main() {
  const std::string CacheDir = fs::makeTempDirectory("proteus-autotune");
  const std::string CaptureDir = fs::makeTempDirectory("proteus-autotune-cap");
  const int Status = tune(CacheDir, CaptureDir);
  fs::removeTree(CaptureDir);
  fs::removeTree(CacheDir);
  return Status;
}
