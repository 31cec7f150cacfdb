//===- Benchmark.cpp - HeCBench-sim program harness -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "hecbench/Benchmark.h"

#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

using namespace proteus;
using namespace proteus::hecbench;
using namespace proteus::gpu;

BufferSpec BufferSpec::fromDoubles(std::string Name,
                                   const std::vector<double> &V) {
  BufferSpec B;
  B.Name = std::move(Name);
  B.Init.resize(V.size() * sizeof(double));
  std::memcpy(B.Init.data(), V.data(), B.Init.size());
  return B;
}

BufferSpec BufferSpec::fromInts(std::string Name,
                                const std::vector<int32_t> &V) {
  BufferSpec B;
  B.Name = std::move(Name);
  B.Init.resize(V.size() * sizeof(int32_t));
  std::memcpy(B.Init.data(), V.data(), B.Init.size());
  return B;
}

ArgSpec ArgSpec::scalarF32(float V) {
  return ArgSpec{Kind::Scalar, pir::sem::boxF32(V), "", 0};
}

ArgSpec ArgSpec::scalarF64(double V) {
  return ArgSpec{Kind::Scalar, pir::sem::boxF64(V), "", 0};
}

std::vector<uint8_t> BufferReader::bytes(const std::string &Name) const {
  auto It = Buffers.find(Name);
  if (It == Buffers.end())
    return {};
  uint64_t Size = Sizes.at(Name);
  std::vector<uint8_t> Out(Size);
  std::memcpy(Out.data(), Dev.memory().data() + It->second, Size);
  return Out;
}

std::vector<double> BufferReader::doubles(const std::string &Name) const {
  std::vector<uint8_t> B = bytes(Name);
  std::vector<double> Out(B.size() / sizeof(double));
  std::memcpy(Out.data(), B.data(), Out.size() * sizeof(double));
  return Out;
}

std::vector<float> BufferReader::floats(const std::string &Name) const {
  std::vector<uint8_t> B = bytes(Name);
  std::vector<float> Out(B.size() / sizeof(float));
  std::memcpy(Out.data(), B.data(), Out.size() * sizeof(float));
  return Out;
}

namespace {

/// The lowest address outside every buffer whose byte the launches changed.
/// Below the pre-launch high-water mark the image is compared with
/// \p Before; above it the image was all zeros, and only the pages the
/// launches committed (mincore lists them) can hold a non-zero byte, so the
/// rest of the mapping is never read.
std::optional<DevicePtr>
firstStrayStore(const Device &Dev, const std::vector<uint8_t> &Before,
                const std::map<std::string, DevicePtr> &Ptrs,
                const std::map<std::string, uint64_t> &Sizes) {
  const uint8_t *Mem = Dev.memory().data();
  std::vector<std::pair<DevicePtr, DevicePtr>> Buffers;
  for (const auto &[Name, P] : Ptrs)
    Buffers.push_back({P, P + Sizes.at(Name)});
  std::sort(Buffers.begin(), Buffers.end());
  Buffers.push_back({Before.size(), Before.size()});
  uint64_t From = 0;
  for (const auto &[Lo, Hi] : Buffers) {
    if (Lo > From) {
      const uint8_t *Diff =
          std::mismatch(Mem + From, Mem + Lo, Before.data() + From).first;
      if (Diff != Mem + Lo)
        return Diff - Mem;
    }
    From = std::max(From, Hi);
  }
  const uint64_t Page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t First = Before.size() / Page * Page;
  const uint64_t Size = Dev.memory().size();
  // Every page counts as committed if mincore fails.
  std::vector<unsigned char> Committed((Size - First + Page - 1) / Page, 1);
  mincore(const_cast<uint8_t *>(Mem) + First, Size - First, Committed.data());
  for (size_t I = 0; I != Committed.size(); ++I) {
    if (!(Committed[I] & 1))
      continue;
    const uint8_t *Lo = Mem + std::max<uint64_t>(First + I * Page, From);
    const uint8_t *Hi = Mem + std::min(First + (I + 1) * Page, Size);
    const uint8_t *NonZero = std::find_if(Lo, Hi, [](uint8_t V) { return V; });
    if (NonZero != Hi)
      return NonZero - Mem;
  }
  return std::nullopt;
}

} // namespace

std::map<std::string, std::vector<uint8_t>>
proteus::hecbench::referenceOutputs(const Benchmark &B, std::string &Error) {
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M = B.buildModule(Ctx);
  // Globals, then buffers, at 64-byte-aligned offsets above a non-zero
  // base, as Device::allocate places them (address 0 is the null pointer).
  std::vector<uint8_t> Image;
  auto Place = [&Image](const std::vector<uint8_t> &Init, uint64_t Bytes) {
    uint64_t At = std::max<uint64_t>(64, (Image.size() + 63) & ~63ull);
    Image.resize(At + Bytes);
    std::copy(Init.begin(), Init.end(), Image.begin() + At);
    return At;
  };
  for (const auto &G : M->globals())
    G->replaceAllUsesWith(
        Ctx.getConstantPtr(Place(G->getInit(), G->sizeInBytes())));
  std::map<std::string, std::pair<uint64_t, uint64_t>> Buffers;
  for (const BufferSpec &BS : B.buffers())
    Buffers[BS.Name] = {Place(BS.Init, BS.Init.size()), BS.Init.size()};

  pir::IRInterpreter Interp(Image);
  for (const LaunchSpec &L : B.launches()) {
    pir::Function *F = M->getFunction(L.Symbol);
    if (!F) {
      Error = B.name() + ": unknown kernel @" + L.Symbol;
      return {};
    }
    std::vector<uint64_t> Args;
    for (const ArgSpec &A : L.Args)
      Args.push_back(A.K == ArgSpec::Kind::Scalar
                         ? A.Bits
                         : Buffers.at(A.BufferName).first + A.ByteOffset);
    // Threads run one after another, x fastest, block by block.
    auto Split = [](uint64_t I, const Dim3 &D, uint32_t Out[3]) {
      Out[0] = static_cast<uint32_t>(I % D.X);
      Out[1] = static_cast<uint32_t>(I / D.X % D.Y);
      Out[2] = static_cast<uint32_t>(I / D.X / D.Y);
    };
    pir::ThreadGeometry G;
    G.GridDim[0] = L.Grid.X;
    G.GridDim[1] = L.Grid.Y;
    G.GridDim[2] = L.Grid.Z;
    G.BlockDim[0] = L.Block.X;
    G.BlockDim[1] = L.Block.Y;
    G.BlockDim[2] = L.Block.Z;
    for (uint64_t Blk = 0; Blk != L.Grid.count(); ++Blk)
      for (uint64_t T = 0; T != L.Block.count(); ++T) {
        Split(Blk, L.Grid, G.BlockIdx);
        Split(T, L.Block, G.ThreadIdx);
        pir::InterpResult R = Interp.run(*F, Args, G);
        if (!R.Ok) {
          Error = B.name() + ": interpreter failed in @" + L.Symbol + ": " +
                  R.Error;
          return {};
        }
      }
  }
  std::map<std::string, std::vector<uint8_t>> Out;
  for (const auto &[Name, Range] : Buffers)
    Out[Name].assign(Image.begin() + Range.first,
                     Image.begin() + Range.first + Range.second);
  return Out;
}

RunResult proteus::hecbench::runBenchmark(const Benchmark &B,
                                          const RunConfig &Config) {
  RunResult Out;
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M = B.buildModule(Ctx);

  // --- AOT build (cost reported separately; see Figure 5 bench) ------------
  AotOptions AO;
  AO.Arch = Config.Arch;
  AO.EnableProteusExtensions = Config.Mode == ExecMode::Proteus;
  CompiledProgram Prog = aotCompile(*M, AO);

  // --- Device + runtimes ------------------------------------------------------
  Device Dev(getTarget(Config.Arch), 1ull << 28);
  std::unique_ptr<JitRuntime> Jit;
  std::unique_ptr<JitifyRuntime> Jitify;
  if (Config.Mode == ExecMode::Proteus) {
    Jit = std::make_unique<JitRuntime>(Dev, Prog.ModuleId, Config.Jit);
    if (Config.ColdCache)
      Jit->cache().clearPersistent();
  } else if (Config.Mode == ExecMode::Jitify) {
    Jitify = std::make_unique<JitifyRuntime>(Dev);
    if (!Jitify->ok()) {
      Out.Error = "Jitify mode requires the nvptx-sim target";
      return Out;
    }
  }

  LoadedProgram LP(Dev, Prog, Jit.get());
  if (!LP.ok()) {
    Out.Error = LP.error();
    return Out;
  }
  std::set<std::string> JitifyKernels;
  if (Jitify) {
    // Register every annotated kernel's stringified source; un-annotated
    // kernels keep running their AOT binaries, as in the paper's setup.
    std::string Source = pir::printModule(*M);
    for (pir::Function *K : M->kernels())
      if (const auto &Ann = K->getJitAnnotation()) {
        Jitify->addProgram(K->getName(), Source, Ann->ArgIndices);
        JitifyKernels.insert(K->getName());
      }
  }

  // --- Buffers -------------------------------------------------------------------
  std::map<std::string, DevicePtr> BufferPtrs;
  std::map<std::string, uint64_t> BufferSizes;
  for (const BufferSpec &BS : B.buffers()) {
    DevicePtr P = 0;
    if (gpuMalloc(Dev, &P, BS.Init.size()) != GpuError::Success) {
      Out.Error = "device OOM for buffer " + BS.Name;
      return Out;
    }
    gpuMemcpyHtoD(Dev, P, BS.Init.data(), BS.Init.size());
    BufferPtrs[BS.Name] = P;
    BufferSizes[BS.Name] = BS.Init.size();
  }

  // Device memory below the high-water mark before any kernel runs, for the
  // stray-store guard after the launches.
  uint64_t HighWater = 0;
  for (const auto &[Base, Size] : Dev.liveAllocations())
    HighWater = std::max(HighWater, Base + Size);
  const std::vector<uint8_t> Before(Dev.memory().data(),
                                    Dev.memory().data() + HighWater);

  // --- Execute the launch sequence -----------------------------------------------
  Dev.resetSimulatedTime();
  for (const LaunchSpec &L : B.launches()) {
    std::vector<KernelArg> Args;
    for (const ArgSpec &A : L.Args) {
      if (A.K == ArgSpec::Kind::Scalar)
        Args.push_back(KernelArg{A.Bits});
      else
        Args.push_back(
            KernelArg{BufferPtrs.at(A.BufferName) + A.ByteOffset});
    }
    std::string Err;
    GpuError E;
    if (Config.Mode == ExecMode::Jitify && JitifyKernels.count(L.Symbol))
      E = Jitify->launch(L.Symbol, L.Grid, L.Block, Args, &Err);
    else
      E = LP.launch(L.Symbol, L.Grid, L.Block, Args, &Err);
    if (E != GpuError::Success) {
      Out.Error = "launch of @" + L.Symbol + " failed: " + Err;
      return Out;
    }
    // Sampled-simulation extrapolation: account the remaining identical
    // iterations' device time without re-executing them.
    uint64_t Scale = B.timeScale();
    if (Scale > 1) {
      auto Extrapolate = [Scale](Device &D) {
        double S = D.LastLaunch.DurationSec * static_cast<double>(Scale - 1);
        D.addSimulatedSeconds(S);
        D.addKernelSeconds(S);
      };
      // Background promotions may query this device (global symbol
      // lookups) under the runtime's device lock; extrapolate under it too.
      if (Jit)
        Jit->withDeviceLocked(0, Extrapolate);
      else
        Extrapolate(Dev);
    }
  }

  // --- Account time ------------------------------------------------------------------
  if (Jit)
    Jit->drain(); // join background compiles before reading counters
  Out.DeviceSeconds = Dev.simulatedSeconds();
  Out.KernelSeconds = Dev.kernelSeconds();
  if (Jit) {
    Out.Jit = Jit->stats();
    Out.HostJitSeconds =
        Out.Jit.totalCompileSeconds() + Out.Jit.CacheLookupSeconds;
    Out.JitCompilations = Out.Jit.Compilations;
    Out.CodeCacheBytes = Jit->cache().memoryBytes();
  }
  if (Jitify) {
    Out.HostJitSeconds = Jitify->stats().FrontendSeconds +
                         Jitify->stats().OptimizeSeconds +
                         Jitify->stats().BackendSeconds;
    Out.JitCompilations = Jitify->stats().Compilations;
  }
  Out.Profile = Dev.Profile;

  // --- Verify --------------------------------------------------------------------------
  if (std::optional<DevicePtr> At =
          firstStrayStore(Dev, Before, BufferPtrs, BufferSizes)) {
    Out.Error = formatString(
        "launches changed device memory outside every buffer at 0x%llx",
        static_cast<unsigned long long>(*At));
    return Out;
  }
  BufferReader Reader(Dev, BufferPtrs, BufferSizes);
  for (const auto &[Name, Ptr] : BufferPtrs)
    Out.Outputs[Name] = Reader.bytes(Name);
  Out.Verified = B.verifyOutput(Reader);
  if (!Out.Verified) {
    Out.Error = "output verification failed";
    return Out;
  }
  Out.Ok = true;
  return Out;
}

std::vector<std::unique_ptr<Benchmark>> proteus::hecbench::allBenchmarks() {
  std::vector<std::unique_ptr<Benchmark>> Out;
  Out.push_back(makeAdamBenchmark());
  Out.push_back(makeRsbenchBenchmark());
  Out.push_back(makeWsm5Benchmark());
  Out.push_back(makeFeykacBenchmark());
  Out.push_back(makeLuleshBenchmark());
  Out.push_back(makeSw4ckBenchmark());
  return Out;
}
