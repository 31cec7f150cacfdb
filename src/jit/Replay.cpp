//===- Replay.cpp - standalone capture-artifact replay --------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/Replay.h"

#include "gpu/Runtime.h"
#include "support/Hashing.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;

namespace {

/// Recomputes the specialization hash from the artifact's recorded inputs
/// — with \p Block as the launched block shape, which a geometry override
/// may have changed — through the same computeSpecializationHash the live
/// runtime used.
uint64_t replayedSpecHash(const capture::CaptureArtifact &A, Dim3 Block,
                          GpuArch Arch) {
  SpecializationKey Key;
  Key.ModuleId = A.ModuleId;
  Key.KernelSymbol = A.KernelSymbol;
  Key.Arch = Arch;
  if (A.EnableRCF) {
    for (uint32_t OneBased : A.AnnotatedArgs) {
      if (OneBased == 0 || OneBased > A.ArgBits.size())
        continue; // the capturing runtime validated these already
      Key.FoldedArgs.push_back(
          RuntimeArgValue{OneBased - 1, A.ArgBits[OneBased - 1]});
    }
  }
  if (A.EnableLaunchBounds)
    Key.LaunchBoundsThreads = static_cast<uint32_t>(Block.count());
  return computeSpecializationHash(Key);
}

} // namespace

ReplayResult proteus::replayArtifact(const capture::CaptureArtifact &A,
                                     const ReplayOptions &Opts) {
  ReplayResult R;
  R.RecordedHash = A.SpecializationHash;

  if (A.KernelSymbol.empty() || A.Bitcode.empty()) {
    R.Error = "artifact carries no kernel bitcode";
    return R;
  }
  if (A.DeviceMemoryBytes == 0) {
    R.Error = "artifact records a zero-sized device";
    return R;
  }

  // Rebuild the captured device: same memory size, every captured
  // allocation claimed at its original address with its pre-launch image
  // restored, every global pinned to its original symbol binding. The arch
  // is the recorded one unless overridden — the retarget-exercising mode,
  // where the recorded bitcode recompiles through the other backend and
  // must still reproduce the captured bytes.
  const GpuArch Arch = Opts.ArchOverride.value_or(A.Arch);
  Device Dev(getTarget(Arch), A.DeviceMemoryBytes);
  for (const capture::MemoryRegion &Region : A.Regions) {
    if (Region.PostBytes.size() != Region.PreBytes.size()) {
      R.Error = "artifact region at address " +
                std::to_string(Region.Address) +
                " has mismatched pre/post image sizes";
      return R;
    }
    if (!Dev.claimRange(Region.Address, Region.PreBytes.size())) {
      R.Error = "cannot rebuild captured allocation at address " +
                std::to_string(Region.Address);
      return R;
    }
    std::memcpy(Dev.memory().data() + Region.Address, Region.PreBytes.data(),
                Region.PreBytes.size());
  }
  for (const capture::GlobalBinding &G : A.Globals)
    Dev.defineSymbol(G.Symbol, G.Address);

  // The artifact's specialization knobs are inputs of the recorded hash, so
  // they override whatever the caller's environment says; the pipeline
  // knobs (tier, analyze, O3, verify-each) stay caller-controlled. Replay
  // is synchronous and never re-captures itself.
  JitConfig JC = Opts.Jit;
  JC.EnableRCF = A.EnableRCF;
  JC.EnableLaunchBounds = A.EnableLaunchBounds;
  JC.Async = JitConfig::AsyncMode::Sync;
  JC.Capture = false;
  JC.UseMemoryCache = true;
  JC.UsePersistentCache = !Opts.CacheDir.empty();
  if (!Opts.CacheDir.empty())
    JC.CacheDir = Opts.CacheDir;

  JitRuntime Jit(Dev, A.ModuleId, JC);
  JitKernelInfo Info;
  Info.Symbol = A.KernelSymbol;
  Info.AnnotatedArgs = A.AnnotatedArgs;
  Info.HostBitcode = A.Bitcode;
  Jit.registerKernel(std::move(Info));
  for (const capture::GlobalBinding &G : A.Globals)
    Jit.registerVar(G.Symbol, G.Address);

  std::vector<KernelArg> Args;
  Args.reserve(A.ArgBits.size());
  for (uint64_t Bits : A.ArgBits)
    Args.push_back(KernelArg{Bits});

  const Dim3 Grid = Opts.OverrideGeometry ? Opts.Grid : A.Grid;
  const Dim3 Block = Opts.OverrideGeometry ? Opts.Block : A.Block;
  std::string LaunchError;
  GpuError E = Jit.launchKernel(A.KernelSymbol, Grid, Block, Args,
                                &LaunchError);
  if (E != GpuError::Success) {
    R.Error = "replay launch failed: " +
              (LaunchError.empty() ? std::string("unknown error")
                                   : LaunchError);
    return R;
  }
  Jit.drain(); // tier promotions etc. must settle before reading stats
  R.Ok = true;

  R.ReplayedHash = replayedSpecHash(A, Block, Arch);
  R.HashMatch = R.ReplayedHash == R.RecordedHash;
  R.Launch = Dev.LastLaunch;
  R.KernelSeconds = Dev.kernelSeconds();
  R.SimulatedSeconds = Dev.simulatedSeconds();

  // Byte-exact differential check of every captured region.
  const gpu::DeviceMemory &Mem = Dev.memory();
  R.OutputMatch = true;
  for (const capture::MemoryRegion &Region : A.Regions) {
    if (std::memcmp(Mem.data() + Region.Address, Region.PostBytes.data(),
                    Region.PostBytes.size()) == 0)
      continue;
    R.OutputMatch = false;
    ++R.MismatchedRegions;
    if (R.FirstMismatch.empty()) {
      for (size_t I = 0; I != Region.PostBytes.size(); ++I) {
        uint8_t Got = Mem[Region.Address + I];
        if (Got != Region.PostBytes[I]) {
          R.FirstMismatch =
              "region @" + std::to_string(Region.Address) + " byte " +
              std::to_string(I) + ": captured 0x" +
              hashToHex(Region.PostBytes[I]).substr(14) + ", replayed 0x" +
              hashToHex(Got).substr(14);
          break;
        }
      }
    }
  }

  JitRuntimeStats Stats = Jit.stats();
  R.CompilationsUsed = Stats.Compilations + Stats.Tier0Compiles;
  return R;
}
