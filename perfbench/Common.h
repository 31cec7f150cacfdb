//===- Common.h - shared pieces of the JIT performance benchmark -*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics, seeded randomness, output digests, the benchmark's own
/// in-memory span tracer, the result sink, and the per-(program, arch)
/// build that several phases share. Everything here calls the project only
/// through its public headers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "jit/CodeCache.h"
#include "jit/Program.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

// --- Seeded randomness --------------------------------------------------------

/// SplitMix64: small, fast, and the same sequence on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

// --- Digests -------------------------------------------------------------------

/// 64-bit digest of a byte range, word at a time (fast enough to hash a few
/// MiB of device memory per sample).
uint64_t digest(const uint8_t *Data, size_t Size, uint64_t H = 0);

/// Digest of every named buffer's final contents on \p Dev, in name order.
uint64_t bufferDigest(proteus::gpu::Device &Dev,
                      const std::map<std::string, proteus::gpu::DevicePtr> &Ptrs,
                      const std::map<std::string, uint64_t> &Sizes);

// --- Tracing --------------------------------------------------------------------

/// The benchmark's own span recorder, used only in the traced run. Spans are
/// kept in per-thread buffers (no lock on the recording path) and reduced
/// after the run: a span's self time is its duration minus the time its
/// child spans cover.
class Tracer {
public:
  struct Span {
    const char *Name;
    double Start, End; ///< seconds since the tracer was created
    int32_t Parent;    ///< index in the same thread's buffer, -1 for a root
    uint64_t Request;
  };

  struct Summary {
    size_t Count = 0;
    std::vector<double> Durations; ///< seconds
    std::vector<double> Self;      ///< seconds
  };

  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span on the calling thread; its parent is the innermost span
  /// the thread has open. Returns a handle for end().
  int32_t begin(const char *Name, uint64_t Request);
  void end(int32_t Handle);

  /// Per span name: durations and self times of every recorded span.
  std::map<std::string, Summary> summarize() const;

  size_t spanCount() const;

private:
  struct Buffer {
    std::vector<Span> Spans;
    std::vector<int32_t> Open;
  };
  Buffer &local();

  Clock::time_point Epoch;
  mutable std::mutex Mutex; // guards Buffers (registration only)
  std::vector<std::unique_ptr<Buffer>> Buffers;
  uint64_t Id;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Request = 0)
      : T(T), H(T ? T->begin(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(H);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int32_t H;
};

// --- Host speed ----------------------------------------------------------------

/// A fixed piece of host work that calls nothing in the project: sort 32768
/// seeded 64-bit words, then insert them into an open-addressing table, in
/// buffers allocated once. A shared host's speed drifts by 10-20% between
/// runs a minute apart (other tenants' load on the caches, the memory and
/// the clock), and every host time a run measures drifts with it. The probe
/// is sampled all through the run, so it measures the speed the run had.
class HostProbe {
public:
  /// Probe seconds on the host the benchmark was tuned on (4-vCPU VM).
  static constexpr double ReferenceSeconds = 2.5e-3;

  HostProbe();
  /// Runs the work once and records its wall seconds.
  void sample();
  /// The run's host speed: the 10th percentile of the samples. Interference
  /// only adds time, so a low percentile tracks the host's speed rather
  /// than its interference.
  double seconds() const { return percentile(Samples, 10); }
  /// Scales a host time of this run to the reference host.
  double scale() const { return ReferenceSeconds / seconds(); }
  size_t samples() const { return Samples.size(); }

private:
  std::vector<uint64_t> Words, Table;
  std::vector<double> Samples;
  uint64_t Sink = 0;
};

// --- Results -------------------------------------------------------------------

/// Everything one run reports: metrics, operation counts and detail rows.
class Report {
public:
  void endToEnd(const std::string &Name, double Value, const char *Unit);
  /// An end-to-end time measured on the host, reported at the reference
  /// host speed by normalize().
  void hostTime(const std::string &Name, double Value, const char *Unit);
  void perLayer(const std::string &Name, double Value, const char *Unit);

  /// Counts one timed operation of the check named \p Check; \p Ok false
  /// counts it as failed and logs \p What (the first few failures only).
  void operation(const char *Check, bool Ok, const std::string &What = "");
  /// Counts \p N passed operations of \p Check.
  void operations(const char *Check, uint64_t N);

  /// The lowest pass ratio over the checks, so every kind of check weighs
  /// the same however many operations it counts: one whole check failing
  /// takes the ratio to 0.
  double okRatio() const;

  /// Scales every host time by \p P's scale() and records the probe and
  /// the raw values in a row.
  void normalize(const HostProbe &P);

  /// A detail row, printed as "#row <json>" before the result line.
  void row(const std::string &Json) { Rows.push_back(Json); }

  /// Prints the rows, the end-to-end metrics as "#e2e <json>", and the
  /// result object as the last line of stdout.
  void print(bool Trace) const;

private:
  struct Metric {
    double Value;
    std::string Unit;
    bool HostTime = false;
  };
  static std::string metricsJson(const std::map<std::string, Metric> &M);

  struct Tally {
    uint64_t Attempted = 0, Failed = 0;
  };

  std::map<std::string, Metric> EndToEnd, PerLayer;
  std::map<std::string, Tally> Checks;
  std::vector<std::string> Rows;
  uint64_t Attempted = 0, Failed = 0;
};

/// printf-style formatting into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

// --- Shared program builds -----------------------------------------------------

/// One HeCBench-sim program built and AOT-compiled for one arch, with the
/// Proteus extensions on (jit kernels carry their bitcode).
struct ProgramBuild {
  const proteus::hecbench::Benchmark *B = nullptr;
  proteus::GpuArch Arch = proteus::GpuArch::AmdGcnSim;
  std::string Name; ///< "<program>/<arch>"
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M;
  proteus::CompiledProgram Prog;
  std::vector<proteus::hecbench::BufferSpec> Buffers;
  std::vector<proteus::hecbench::LaunchSpec> Launches;
};

const char *archName(proteus::GpuArch A);

std::unique_ptr<ProgramBuild> buildProgram(const proteus::hecbench::Benchmark &B,
                                           proteus::GpuArch Arch);

/// A program loaded on a device of its own under a JIT runtime, with its
/// buffers allocated and uploaded (the state runBenchmark creates before
/// the first launch).
struct ProgramInstance {
  std::unique_ptr<proteus::gpu::Device> Dev;
  std::unique_ptr<proteus::JitRuntime> Jit;
  std::unique_ptr<proteus::LoadedProgram> LP;
  std::map<std::string, proteus::gpu::DevicePtr> Ptrs;
  std::map<std::string, uint64_t> Sizes;

  std::vector<proteus::gpu::KernelArg>
  args(const proteus::hecbench::LaunchSpec &L) const;
};

/// Creates the device, the runtime and the program load, then allocates
/// and uploads every buffer. Returns false with \p Error set on failure.
bool instantiate(const ProgramBuild &P, uint64_t MemoryBytes,
                 const proteus::JitConfig &Config, ProgramInstance &Out,
                 std::string &Error);

// --- One-block launches of the programs' jit kernels -----------------------------

/// Indices of \p P's distinct jit launches: launches of a jit kernel with
/// the same block shape and the same arguments are one entry.
std::vector<size_t> distinctJitLaunches(const ProgramBuild &P);

/// Device memory for an instance of \p P that runs one-block launches: its
/// buffers plus 2 MiB for globals and jit bitcode, in whole MiB.
uint64_t oneBlockDeviceBytes(const ProgramBuild &P);

/// End of the highest live allocation on \p Dev.
uint64_t highWaterMark(const proteus::gpu::Device &Dev);

/// Launch \p L reduced to its first block.
proteus::hecbench::LaunchSpec oneBlock(const proteus::hecbench::LaunchSpec &L);

/// Reference-store key of the interpreter's result for one block of
/// \p P's launch \p Launch: a digest of device memory up to the high-water
/// mark of a fresh instance. The key with "/insts" appended holds the
/// number of instructions the interpreter ran for that block.
std::string oneBlockKey(const ProgramBuild &P, size_t Launch);

/// The specialization the runtime compiles for \p L launched with \p Args.
proteus::SpecializationKey
specializationKey(const ProgramBuild &P, const proteus::hecbench::LaunchSpec &L,
                  const std::vector<proteus::gpu::KernelArg> &Args);

/// Replays \p Ls on the reference IR interpreter over \p Memory, a copy of
/// \p Dev's memory holding the program's state, with every launch's grid
/// clamped to \p MaxBlocks blocks when nonzero. Adds the instructions it
/// interpreted to \p DynamicInsts when given.
bool interpretLaunches(const ProgramBuild &P, proteus::gpu::Device &Dev,
                       const std::vector<proteus::hecbench::LaunchSpec> &Ls,
                       const std::map<std::string, proteus::gpu::DevicePtr> &Ptrs,
                       uint32_t MaxBlocks, std::vector<uint8_t> &Memory,
                       std::string &Error, uint64_t *DynamicInsts = nullptr);

// --- Reference store -----------------------------------------------------------

/// Reference values verified once per build of the benchmark binary and
/// kept in the state directory, keyed by a digest of the binary: a rebuilt
/// program gets fresh references, an unchanged one reuses them.
class ReferenceStore {
public:
  explicit ReferenceStore(const std::string &StateDir);
  bool has(const std::string &Key) const { return Values.count(Key) != 0; }
  uint64_t get(const std::string &Key) const;
  void set(const std::string &Key, uint64_t V) { Values[Key] = V; }
  bool save() const;

private:
  std::string Path;
  std::map<std::string, uint64_t> Values;
};

/// Computes the interpreter's one-block result of every distinct jit launch
/// of every program in \p Programs that \p Refs does not hold yet.
bool prepareOneBlockReferences(
    const std::vector<std::unique_ptr<ProgramBuild>> &Programs,
    ReferenceStore &Refs, std::string &Error);

/// Minor page faults of this process so far.
long minorFaults();
/// Peak resident set size of this process, in MiB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
