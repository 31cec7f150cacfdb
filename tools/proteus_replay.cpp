//===- proteus_replay.cpp - capture-artifact replay CLI -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Loads capture artifacts (.pcap, produced under PROTEUS_CAPTURE=on), re-JITs
// each one standalone through the same JitRuntime pipeline, executes it on a
// fresh simulated device, and diffs the output memory and specialization
// hash against the values recorded at capture time:
//
//   proteus-replay [options] artifact.pcap [more.pcap ...]
//
// Options:
//   --info       print artifact metadata without replaying
//   --dump-pir   print the artifact's pruned kernel module as textual PIR
//                (pipe into pir-lint for sanitizer checks) without replaying
//   --cache-dir=DIR  use DIR as the replay runtime's persistent code cache
//                (a second replay against the same DIR compiles nothing)
//   --publish    compile each artifact's specialization through the
//                configured cache backend (requires --cache-dir; honors the
//                PROTEUS_CACHE_* remote/fleet settings) so a fresh fleet
//                starts warm — prints a PUBLISHED line per artifact
//   --device-arch=ARCH  replay on ARCH (amdgcn-sim|nvptx-sim) instead of
//                the recorded architecture, exercising the per-arch
//                recompile; the differential output check still applies
//                in full, but the specialization hash keys the overridden
//                arch, so hash equality is only enforced when ARCH matches
//                the recording
//
// The replay honors the usual PROTEUS_* environment overrides (PROTEUS_TIER,
// PROTEUS_ANALYZE, PROTEUS_VERIFY_EACH, ...), so a captured workload can be
// re-checked under any pipeline configuration. The artifact's own
// specialization knobs (RCF / launch bounds) always win — they are inputs of
// the recorded hash.
//
// Exit status: 0 when every artifact replays byte-identical with a matching
// hash, 1 on any mismatch or replay failure, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "bitcode/ModuleIndex.h"
#include "codegen/Target.h"
#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "jit/Replay.h"
#include "support/Hashing.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace proteus;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: proteus-replay [--info] [--dump-pir] "
               "[--cache-dir=DIR] [--publish] [--device-arch=ARCH] "
               "artifact.pcap [more.pcap ...]\n");
  return 2;
}

/// Maps an --device-arch operand to the simulated architecture it names.
bool parseArch(const std::string &Name, GpuArch *Out) {
  for (GpuArch A : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    if (Name == gpuArchName(A)) {
      *Out = A;
      return true;
    }
  }
  return false;
}

void printInfo(const std::string &Path, const capture::CaptureArtifact &A) {
  std::printf("%s:\n", Path.c_str());
  std::printf("  kernel        @%s\n", A.KernelSymbol.c_str());
  std::printf("  arch          %s\n", gpuArchName(A.Arch));
  std::printf("  module id     %s\n", hashToHex(A.ModuleId).c_str());
  std::printf("  grid          %ux%ux%u  block %ux%ux%u\n", A.Grid.X,
              A.Grid.Y, A.Grid.Z, A.Block.X, A.Block.Y, A.Block.Z);
  std::printf("  args          %zu (%zu jit-annotated)\n", A.ArgBits.size(),
              A.AnnotatedArgs.size());
  std::printf("  spec knobs    rcf=%s lb=%s tier=%s\n",
              A.EnableRCF ? "on" : "off", A.EnableLaunchBounds ? "on" : "off",
              A.TierMode ? "on" : "off");
  std::printf("  spec hash     %s\n", hashToHex(A.SpecializationHash).c_str());
  std::printf("  pipeline fp   %s\n",
              hashToHex(A.PipelineFingerprint).c_str());
  std::printf("  device memory %llu bytes\n",
              static_cast<unsigned long long>(A.DeviceMemoryBytes));
  std::printf("  bitcode       %zu bytes\n", A.Bitcode.size());
  std::printf("  globals       %zu\n", A.Globals.size());
  uint64_t RegionBytes = 0;
  for (const capture::MemoryRegion &R : A.Regions)
    RegionBytes += R.PreBytes.size();
  std::printf("  regions       %zu (%llu bytes each way)\n", A.Regions.size(),
              static_cast<unsigned long long>(RegionBytes));
}

/// Rebuilds the pruned kernel module from the artifact's bitcode and prints
/// it as parseable PIR text (the pir-lint input format).
bool dumpPir(const std::string &Path, const capture::CaptureArtifact &A) {
  std::string Error;
  std::shared_ptr<const KernelModuleIndex> Index =
      KernelModuleIndex::create(A.Bitcode, Error);
  if (!Index) {
    std::fprintf(stderr, "%s: corrupt artifact bitcode: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M =
      Index->materialize(Ctx, A.KernelSymbol, nullptr);
  if (!M) {
    std::fprintf(stderr, "%s: artifact bitcode lacks kernel @%s\n",
                 Path.c_str(), A.KernelSymbol.c_str());
    return false;
  }
  std::fputs(pir::printModule(*M).c_str(), stdout);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Info = false;
  bool DumpPir = false;
  bool Publish = false;
  std::string CacheDir;
  std::optional<GpuArch> ArchOverride;
  std::vector<std::string> Files;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--info")
      Info = true;
    else if (Arg == "--dump-pir")
      DumpPir = true;
    else if (Arg == "--publish")
      Publish = true;
    else if (Arg.rfind("--cache-dir=", 0) == 0)
      CacheDir = Arg.substr(12);
    else if (Arg.rfind("--device-arch=", 0) == 0) {
      GpuArch A;
      if (!parseArch(Arg.substr(14), &A)) {
        std::fprintf(stderr,
                     "proteus-replay: unknown architecture '%s' "
                     "(expected amdgcn-sim|nvptx-sim)\n",
                     Arg.substr(14).c_str());
        return 2;
      }
      ArchOverride = A;
    } else if (!Arg.empty() && Arg[0] == '-')
      return usage();
    else
      Files.push_back(Arg);
  }
  if (Files.empty())
    return usage();
  if (Publish && CacheDir.empty()) {
    std::fprintf(stderr, "proteus-replay: --publish requires --cache-dir\n");
    return 2;
  }

  ReplayOptions Opts;
  Opts.Jit = JitConfig::fromEnvironment();
  Opts.CacheDir = CacheDir;
  Opts.ArchOverride = ArchOverride;

  size_t Failures = 0;
  for (const std::string &Path : Files) {
    std::string Error;
    std::optional<capture::CaptureArtifact> A =
        capture::readArtifactFile(Path, &Error);
    if (!A) {
      std::fprintf(stderr, "proteus-replay: %s: %s\n", Path.c_str(),
                   Error.c_str());
      ++Failures;
      continue;
    }
    if (Info) {
      printInfo(Path, *A);
      continue;
    }
    if (DumpPir) {
      if (!dumpPir(Path, *A))
        ++Failures;
      continue;
    }
    ReplayResult R = replayArtifact(*A, Opts);
    const GpuArch ReplayArch = ArchOverride.value_or(A->Arch);
    // Retargeting to a different arch re-keys the specialization hash, so
    // hash equality is only enforced when the replay arch is the recorded
    // one; the byte-exact differential check always applies.
    const bool Passed = ReplayArch == A->Arch ? R.passed()
                                              : R.Ok && R.OutputMatch;
    if (Passed) {
      std::printf("%s: OK @%s on %s (%zu region(s) byte-identical, hash %s, "
                  "%llu compile(s))\n",
                  Path.c_str(), A->KernelSymbol.c_str(),
                  gpuArchName(ReplayArch), A->Regions.size(),
                  hashToHex(R.ReplayedHash).c_str(),
                  static_cast<unsigned long long>(R.CompilationsUsed));
      if (Publish)
        std::printf("%s: PUBLISHED @%s for %s (%llu compile(s) into cache)\n",
                    Path.c_str(), A->KernelSymbol.c_str(),
                    gpuArchName(ReplayArch),
                    static_cast<unsigned long long>(R.CompilationsUsed));
      continue;
    }
    ++Failures;
    if (!R.Ok) {
      std::fprintf(stderr, "%s: FAILED: %s\n", Path.c_str(),
                   R.Error.c_str());
      continue;
    }
    if (!R.HashMatch && ReplayArch == A->Arch)
      std::fprintf(stderr,
                   "%s: HASH MISMATCH: captured %s, replayed %s\n",
                   Path.c_str(), hashToHex(R.RecordedHash).c_str(),
                   hashToHex(R.ReplayedHash).c_str());
    if (!R.OutputMatch)
      std::fprintf(stderr, "%s: OUTPUT MISMATCH in %u region(s): %s\n",
                   Path.c_str(), R.MismatchedRegions,
                   R.FirstMismatch.c_str());
  }
  if (Failures) {
    std::fprintf(stderr, "proteus-replay: %zu of %zu artifact(s) failed\n",
                 Failures, Files.size());
    return 1;
  }
  return 0;
}
