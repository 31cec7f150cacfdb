//===- Benchmark.h - HeCBench-sim program harness ---------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark-program abstraction mirroring the paper's evaluation
/// setup (section 4): each program declares its device module (with
/// annotate("jit", ...) kernels), its input buffers and its launch
/// sequence. The harness then executes it under any of the paper's modes —
/// AOT, Proteus with a cold or warm persistent cache, Jitify — and under
/// the section 4.5 specialization modes (None/LB/RCF/LB+RCF), measuring
/// end-to-end time as real host-side JIT work plus simulated device time.
/// referenceOutputs() replays the same declarative launch sequence on the
/// reference IR interpreter once, and every mode's outputs must match it
/// bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_HECBENCH_BENCHMARK_H
#define PROTEUS_HECBENCH_BENCHMARK_H

#include "jit/Program.h"
#include "jitify/Jitify.h"

#include <functional>
#include <map>
#include <memory>

namespace proteus {
namespace hecbench {

/// How kernels are compiled/launched.
enum class ExecMode {
  AOT,     // plain ahead-of-time binaries
  Proteus, // JIT with the configured specializations
  Jitify,  // source-string baseline (nvptx-sim only)
};

/// A named device buffer with host-side initial contents.
struct BufferSpec {
  std::string Name;
  std::vector<uint8_t> Init;

  /// Convenience: construct from a vector of doubles.
  static BufferSpec fromDoubles(std::string Name,
                                const std::vector<double> &V);
  static BufferSpec fromInts(std::string Name, const std::vector<int32_t> &V);
};

/// One kernel argument: a scalar payload or a reference to a named buffer.
struct ArgSpec {
  enum class Kind { Scalar, Buffer } K = Kind::Scalar;
  uint64_t Bits = 0;       // scalar payload (OpSemantics boxing)
  std::string BufferName;  // buffer reference
  uint64_t ByteOffset = 0;

  static ArgSpec scalarI32(int32_t V) {
    return ArgSpec{Kind::Scalar, static_cast<uint32_t>(V), "", 0};
  }
  static ArgSpec scalarF32(float V);
  static ArgSpec scalarF64(double V);
  static ArgSpec buffer(std::string Name, uint64_t ByteOffset = 0) {
    return ArgSpec{Kind::Buffer, 0, std::move(Name), ByteOffset};
  }
};

/// One kernel launch in the program's execution.
struct LaunchSpec {
  std::string Symbol;
  gpu::Dim3 Grid;
  gpu::Dim3 Block;
  std::vector<ArgSpec> Args;
};

/// View of final buffer contents for verification.
class BufferReader {
public:
  BufferReader(gpu::Device &Dev,
               const std::map<std::string, gpu::DevicePtr> &Buffers,
               const std::map<std::string, uint64_t> &Sizes)
      : Dev(Dev), Buffers(Buffers), Sizes(Sizes) {}

  /// Raw bytes of a buffer.
  std::vector<uint8_t> bytes(const std::string &Name) const;
  std::vector<double> doubles(const std::string &Name) const;
  std::vector<float> floats(const std::string &Name) const;

private:
  gpu::Device &Dev;
  const std::map<std::string, gpu::DevicePtr> &Buffers;
  const std::map<std::string, uint64_t> &Sizes;
};

/// One benchmark program.
class Benchmark {
public:
  virtual ~Benchmark() = default;

  virtual std::string name() const = 0;
  virtual std::string domain() const = 0;
  /// The paper's Table 1 input column equivalent.
  virtual std::string inputDescription() const = 0;

  /// Builds the device module (kernels carry their jit annotations).
  virtual std::unique_ptr<pir::Module> buildModule(pir::Context &Ctx) const = 0;

  /// Input buffers (deterministic contents).
  virtual std::vector<BufferSpec> buffers() const = 0;

  /// The launch sequence of one program execution (all iterations).
  virtual std::vector<LaunchSpec> launches() const = 0;

  /// Program-specific sanity check on final buffers (finiteness, plausible
  /// ranges). Bit-exactness is checked separately, against
  /// referenceOutputs().
  virtual bool verifyOutput(const BufferReader &Out) const = 0;

  /// How many identical application iterations each entry of launches()
  /// stands for. The harness executes each launch once functionally and
  /// accounts its simulated duration timeScale() times — the sampled-
  /// simulation extrapolation documented in DESIGN.md. JIT compilation is
  /// a one-time cost and is *not* scaled.
  virtual uint64_t timeScale() const { return 1; }
};

/// Run configuration.
struct RunConfig {
  GpuArch Arch = GpuArch::AmdGcnSim;
  ExecMode Mode = ExecMode::AOT;
  JitConfig Jit;              // specialization toggles + cache config
  bool ColdCache = true;      // clear the persistent cache before running
};

/// Measurements of one program execution.
struct RunResult {
  bool Ok = false;
  std::string Error;
  bool Verified = false;

  /// Real wall seconds spent in host-side JIT work (compilation pipeline,
  /// cache IO, source parsing for Jitify).
  double HostJitSeconds = 0;
  /// Simulated device seconds (kernels + transfers + module loads).
  double DeviceSeconds = 0;
  /// Simulated kernel-only seconds.
  double KernelSeconds = 0;
  /// End-to-end program time: host JIT work + device time.
  double endToEndSeconds() const { return HostJitSeconds + DeviceSeconds; }

  uint64_t JitCompilations = 0;
  uint64_t CodeCacheBytes = 0; // in-memory code cache footprint (Table 3)
  /// Full JIT runtime counters (Proteus mode only) — includes the async
  /// pipeline's launch-visible vs hidden compile-time split (Figure 6).
  JitRuntimeStats Jit;
  /// Per-kernel aggregated counters (Figures 7-11).
  std::map<std::string, gpu::LaunchStats> Profile;
  /// Final contents of every buffer, by name.
  std::map<std::string, std::vector<uint8_t>> Outputs;
};

/// Executes \p B once under \p Config. A run whose launches change any
/// device byte outside the program's buffers fails, naming the address.
RunResult runBenchmark(const Benchmark &B, const RunConfig &Config);

/// The final contents of \p B's buffers by name, as RunResult::Outputs
/// holds them, from one pass of its launch sequence on the reference IR
/// interpreter over a compact image of its own (no device). Empty, with
/// \p Error set, when the interpreter fails.
std::map<std::string, std::vector<uint8_t>>
referenceOutputs(const Benchmark &B, std::string &Error);

/// All six programs of Table 1, in paper order.
std::vector<std::unique_ptr<Benchmark>> allBenchmarks();

/// Individual factories.
std::unique_ptr<Benchmark> makeAdamBenchmark();
std::unique_ptr<Benchmark> makeRsbenchBenchmark();
std::unique_ptr<Benchmark> makeWsm5Benchmark();
std::unique_ptr<Benchmark> makeFeykacBenchmark();
std::unique_ptr<Benchmark> makeLuleshBenchmark();
std::unique_ptr<Benchmark> makeSw4ckBenchmark();

} // namespace hecbench
} // namespace proteus

#endif // PROTEUS_HECBENCH_BENCHMARK_H
