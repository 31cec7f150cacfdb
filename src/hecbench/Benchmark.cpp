//===- Benchmark.cpp - HeCBench-sim program harness -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "hecbench/Benchmark.h"

#include "ir/Cloning.h"
#include "ir/Module.h"
#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "ir/Interpreter.h"
#include "ir/OpSemantics.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <cstring>

using namespace proteus;
using namespace proteus::hecbench;
using namespace proteus::gpu;

const char *proteus::hecbench::execModeName(ExecMode M) {
  switch (M) {
  case ExecMode::AOT:
    return "AOT";
  case ExecMode::Proteus:
    return "Proteus";
  case ExecMode::Jitify:
    return "Jitify";
  }
  proteus_unreachable("unknown exec mode");
}

BufferSpec BufferSpec::fromDoubles(std::string Name,
                                   const std::vector<double> &V) {
  BufferSpec B;
  B.Name = std::move(Name);
  B.Init.resize(V.size() * sizeof(double));
  std::memcpy(B.Init.data(), V.data(), B.Init.size());
  return B;
}

BufferSpec BufferSpec::fromFloats(std::string Name,
                                  const std::vector<float> &V) {
  BufferSpec B;
  B.Name = std::move(Name);
  B.Init.resize(V.size() * sizeof(float));
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

/// Replays the launch sequence on the reference IR interpreter over a copy
/// of device memory; returns false (with message) on divergence.
bool interpretAndCompare(const Benchmark &B, pir::Module &SourceModule,
                         Device &Dev, std::vector<uint8_t> InitialMemory,
                         const std::map<std::string, DevicePtr> &BufferPtrs,
                         std::string &Error) {
  pir::Context &Ctx = SourceModule.getContext();
  // Link globals at their device addresses in a module clone.
  auto Linked = cloneModule(SourceModule, Ctx, SourceModule.getName() + ".iv");
  for (const auto &G : Linked->globals()) {
    DevicePtr Addr = Dev.getSymbolAddress(G->getName());
    if (!Addr) {
      Error = "interpreter verify: unresolved global @" + G->getName();
      return false;
    }
    G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
  }

  pir::IRInterpreter Interp(InitialMemory);
  for (const LaunchSpec &L : B.launches()) {
    pir::Function *F = Linked->getFunction(L.Symbol);
    if (!F) {
      Error = "interpreter verify: unknown kernel @" + L.Symbol;
      return false;
    }
    std::vector<uint64_t> Args;
    for (const ArgSpec &A : L.Args) {
      if (A.K == ArgSpec::Kind::Scalar)
        Args.push_back(A.Bits);
      else
        Args.push_back(BufferPtrs.at(A.BufferName) + A.ByteOffset);
    }
    for (uint32_t Blk = 0; Blk != L.Grid.X; ++Blk) {
      for (uint32_t Ty = 0; Ty != L.Block.Y; ++Ty) {
        for (uint32_t Tx = 0; Tx != L.Block.X; ++Tx) {
          pir::ThreadGeometry G;
          G.ThreadIdx[0] = Tx;
          G.ThreadIdx[1] = Ty;
          G.BlockIdx[0] = Blk;
          G.BlockDim[0] = L.Block.X;
          G.BlockDim[1] = L.Block.Y;
          G.GridDim[0] = L.Grid.X;
          pir::InterpResult R = Interp.run(*F, Args, G);
          if (!R.Ok) {
            Error = "interpreter verify failed in @" + L.Symbol + ": " +
                    R.Error;
            return false;
          }
        }
      }
    }
  }
  if (InitialMemory != Dev.memory()) {
    Error = "device execution diverged from the reference interpreter";
    return false;
  }
  return true;
}

} // namespace

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

  // Snapshot for interpreter verification before any kernel runs.
  std::vector<uint8_t> Snapshot;
  if (Config.VerifyAgainstInterpreter)
    Snapshot = Dev.memory();

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
  BufferReader Reader(Dev, BufferPtrs, BufferSizes);
  for (const auto &[Name, Ptr] : BufferPtrs)
    Out.Outputs[Name] = Reader.bytes(Name);
  Out.Verified = B.verifyOutput(Reader);
  if (!Out.Verified) {
    Out.Error = "output verification failed";
    return Out;
  }
  if (Config.VerifyAgainstInterpreter) {
    std::string VerifyError;
    if (!interpretAndCompare(B, *M, Dev, std::move(Snapshot), BufferPtrs,
                             VerifyError)) {
      Out.Error = VerifyError;
      Out.Verified = false;
      return Out;
    }
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
