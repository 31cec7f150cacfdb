//===- JitRuntime.h - the Proteus JIT runtime library -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT compilation runtime library of paper section 3.3 — the component
/// reached through __jit_launch_kernel. Per launch it:
///
///   1. hashes (module id, kernel symbol, designated argument values,
///      launch-bounds threads) into the specialization key;
///   2. serves from the in-memory cache, then the persistent cache;
///   3. on a miss: obtains the kernel's bitcode (host-side .jit.<sym>
///      section on amdgcn-sim; device-memory readback of __jit_bc_<sym> on
///      nvptx-sim), links device globals to their runtime-resolved
///      addresses, applies the enabled specializations (RCF, LB), runs the
///      aggressive O3 pipeline, invokes the backend (plus the PTX assembler
///      step on nvptx-sim), inserts the object into both cache levels;
///   4. loads and launches the binary.
///
/// Every specialization knob can be disabled independently, which is how
/// the paper's None/LB/RCF/LB+RCF analysis modes (section 4.5) and the
/// overhead experiment (Figure 6) are produced.
///
/// The runtime is thread-safe. A miss goes to the CompileService
/// (jit/CompileService.h), which deduplicates concurrent launches of the
/// same not-yet-compiled specialization (one compile, many waiters). A cold
/// launch runs the cheapest rung of one ladder that is ready now: a cached
/// entry; with PROTEUS_ASYNC=fallback, the generic AOT binary as a cover;
/// else the wanted rung (Tier-0 with PROTEUS_TIER=on, else Final) compiled
/// on the launching thread, the paper's behaviour. Each rung below Final
/// is promoted in the background and hot-swapped in, never downward
/// (DESIGN.md §2b). Cache entries carry a tier tag and a pipeline
/// fingerprint, so a persisted Tier-0 baseline found on a later run is
/// served immediately and promoted in place.
/// Kernels are materialized from a parse-once module index that clones
/// only the launched kernel's reachable call closure per specialization.
///
/// Multi-device: additional devices (attachDevice) share one runtime, one
/// code cache and one module index. Specializations are keyed by GpuArch,
/// so a kernel is compiled once per architecture and the same object is
/// loaded onto every same-arch device that launches it (PerArchCompileReuse
/// / CrossDeviceLoads count this). With more than one device attached,
/// device-global references stay symbolic in the object and are resolved
/// per device at module-load time through the loader's relocation patching;
/// with a single device the compiler keeps baking resolved addresses into
/// the IR (cheaper, and lets O3 fold address arithmetic). The two linkage
/// modes carry different pipeline fingerprints, so cached objects of one
/// mode are never served in the other.
///
/// A warm launch takes one lock: its device's. The kernel comes from a
/// KernelHandle (registerKernel; a launch by symbol resolves the handle in
/// a table that registration fills before the first launch, a rule
/// registerKernel enforces), and its specialization hash from the
/// handle's lock-free memo, whose inserts take a per-kernel leaf lock
/// until the memo is full.
///
/// Lock order (deadlock discipline): the runtime's table mutexes
/// (RegistryMutex, which serializes registration and the global-address
/// table, the compile service's table mutex, IndexMutex, the memo insert
/// locks) are leaves taken before any per-device lock, never while one is
/// held; SpecMutex is a leaf that may be taken under a device lock. No
/// two device locks are ever held at once. Work that visits several
/// devices (installFinalTier, resetInMemoryState) iterates them in
/// ascending ordinal, locking one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_JITRUNTIME_H
#define PROTEUS_JIT_JITRUNTIME_H

#include "gpu/Runtime.h"
#include "jit/CodeCache.h"
#include "jit/CompilationPolicy.h"
#include "jit/CompileService.h"
#include "support/Env.h"
#include "support/Metrics.h"
#include "transforms/O3Pipeline.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace proteus {

class KernelModuleIndex;

namespace capture {
class CaptureSession;
}

/// Runtime configuration. Each environment variable named below is one row
/// of the knob table in support/Env.h, which holds its spellings, range
/// and default.
struct JitConfig {
  /// How a launch that misses the code cache obtains its binary.
  enum class AsyncMode {
    Sync,     ///< compile inline on the launching thread (default)
    Fallback, ///< cover with the generic AOT binary, hot-swap the
              ///< specialized binary once its background promotion finishes
  };

  bool EnableRCF = !env::defaultOf(env::Knob::NoRcf);
  bool EnableLaunchBounds = !env::defaultOf(env::Knob::NoLaunchBounds);
  bool UseMemoryCache = true;
  bool UsePersistentCache = true;
  std::string CacheDir{env::info(env::Knob::CacheDir).Default};
  /// Size limits + eviction policy (paper section 3.4); defaults unlimited.
  CacheLimits Limits;
  /// Fleet mode (PROTEUS_CACHE_REMOTE): when on, the persistent
  /// level speaks to the node's shared cache service (tools/proteus-cached)
  /// over a unix socket, with batched lookups, fleet-wide compile dedup and
  /// a local-directory fallback when the daemon is unreachable.
  bool CacheRemote = env::defaultOf<bool>(env::Knob::CacheRemote);
  /// Daemon socket path (PROTEUS_CACHE_SOCKET); empty derives
  /// "<CacheDir>/proteus-cached.sock".
  std::string CacheSocket;
  /// Verify the deserialized kernel IR before specializing (defensive mode
  /// for untrusted persistent caches / debugging; off by default).
  bool VerifyIR = false;
  /// Asynchronous compilation pipeline (PROTEUS_ASYNC).
  AsyncMode Async = env::defaultOf<AsyncMode>(env::Knob::Async);
  /// Worker threads for background promotions (PROTEUS_ASYNC_WORKERS).
  unsigned AsyncWorkers = env::defaultOf<unsigned>(env::Knob::AsyncWorkers);
  O3Options O3;

  /// Tiered compilation (PROTEUS_TIER). When on, a cold launch with no
  /// generic cover wants a fast Tier-0 compile (O3Preset::Fast + fast
  /// register allocation), and the full pipeline runs as a background
  /// promotion that hot-swaps the loaded kernel and promotes the cache
  /// entry in place. A covered launch promotes straight to Final.
  bool Tier = env::defaultOf<bool>(env::Knob::Tier);

  /// What to do with kernel-sanitizer findings (divergent barriers,
  /// shared-scratch races/OOB/uninitialized reads — see
  /// analysis/KernelAnalyzer.h) on the specialized, optimized kernel
  /// (PROTEUS_ANALYZE).
  enum class AnalyzeMode {
    Off,   ///< skip the analysis stage entirely
    Warn,  ///< report findings to stderr, launch anyway (default)
    Error, ///< fail the launch with the findings as the error message
  };
  AnalyzeMode Analyze = env::defaultOf<AnalyzeMode>(env::Knob::Analyze);

  /// Run verifyFunction after every O3 pass and attribute any breakage to
  /// the offending pass by name; a failure fails the compile instead of
  /// emitting a miscompiled kernel (PROTEUS_VERIFY_EACH).
  bool VerifyEachPass = env::defaultOf<bool>(env::Knob::VerifyEach);

  /// Launch capture (PROTEUS_CAPTURE): record specialized launches
  /// into self-contained replayable artifacts (pruned bitcode, arg values,
  /// memory snapshots, geometry, arch, pipeline fingerprint) via a bounded
  /// ring that sheds load instead of ever blocking the launch path.
  /// Launches of a generic cover (the unspecialized AOT binary) are not
  /// captured. See src/capture and tools/proteus-replay.
  bool Capture = env::defaultOf<bool>(env::Knob::Capture);
  /// Directory receiving .pcap artifacts (PROTEUS_CAPTURE_DIR).
  std::string CaptureDir{env::info(env::Knob::CaptureDir).Default};
  /// Capture-ring capacity: captures that may be queued or in flight before
  /// new ones are shed (PROTEUS_CAPTURE_RING).
  unsigned CaptureRing = env::defaultOf<unsigned>(env::Knob::CaptureRing);
  /// Capture each distinct launch shape (specialization hash + geometry +
  /// argument bits) only once per runtime; repeats are counted as
  /// capture.dedup and skip all snapshot work, so a steady-state launch
  /// loop pays nothing after its first iteration. False
  /// (PROTEUS_CAPTURE_DEDUP) records every launch — the stress mode the
  /// pressure tests use to exercise ring shedding.
  bool CaptureDedup = env::defaultOf<bool>(env::Knob::CaptureDedup);

  /// Upper bound on variants the variant manager (jit/AutoTuner.h) races
  /// per specialization (PROTEUS_TUNE_BUDGET). The recorded
  /// configuration always races, so the budget caps the extra trials.
  unsigned TuneBudget = env::defaultOf<unsigned>(env::Knob::TuneBudget);

  /// Bottleneck-aware compilation policy (PROTEUS_POLICY). When on,
  /// every compiled kernel is classified on the static roofline
  /// (analysis/Roofline.h) with register-allocation feedback, the verdict
  /// is recorded on the runtime's CompilationPolicy and persisted alongside
  /// tuning decisions, and the variant manager prunes tuning axes the class
  /// says cannot pay off (policy.pruned_trials). Off by default: the tuner
  /// races every axis.
  bool Policy = env::defaultOf<bool>(env::Knob::Policy);

  /// Applies the variables above on top of the defaults. An invalid value
  /// keeps the default, is reported into \p Warnings (or on stderr when
  /// null) and counts in "config.errors".
  static JitConfig fromEnvironment(std::vector<std::string> *Warnings =
                                       nullptr);

  bool operator==(const JitConfig &) const = default;
};

const char *asyncModeName(JitConfig::AsyncMode M);
const char *analyzeModeName(JitConfig::AnalyzeMode M);
const char *tierModeName(bool TierEnabled);

/// Every JitRuntime statistic, defined exactly once: (field name, registry
/// metric name). The lists expand into the JitRuntimeStats snapshot fields,
/// the runtime's metric-handle struct, handle registration and the stats()
/// snapshot — adding a stat means adding one line here.
///
/// Counters: Launches; Compilations; FallbackLaunches (launches that ran
/// the generic binary as a cover); DedupedWaits (launches that joined an
/// in-flight compile);
/// AnnotationRangeErrors (launches rejected because a jit-annotated
/// argument index was out of range); AnalysisDiagnostics (individual
/// kernel-sanitizer findings); AnalysisRejects (compiles failed by
/// AnalyzeMode::Error); VerifyFailures (O3 passes caught breaking the IR
/// in verify-each mode).
///
/// Tiering counters: Compilations counts full-pipeline (final-tier)
/// compiles only; Tier0Compiles counts fast baseline compiles, and
/// Tier1Promotions counts background promotions that installed a Final
/// binary over a cover (generic or Tier-0) — so with PROTEUS_TIER=on an
/// uncovered cold specialization eventually contributes one Tier0Compiles,
/// one Compilations and one Tier1Promotions, and a covered one (its
/// generic binary promotes straight to Final) no Tier0Compiles.
/// PrunedFunctions counts module-index functions skipped by closure-pruned
/// materialization;
/// HashMemoHits counts launches whose specialization hash was served by
/// the per-kernel memo and HashMemoMisses those that computed it, so the
/// two sum to the launches that got as far as the hash.
///
/// Multi-device counters: StreamLaunches counts launches dispatched to an
/// explicit (non-default) stream; CrossDeviceLoads counts module loads of a
/// JIT object onto a device other than the one whose launch first loaded
/// that specialization (launch path and promotion hot-swaps alike);
/// PerArchCompileReuse counts, once per (specialization, device) pair, a
/// launch-path load that reused the per-arch compiled object instead of
/// recompiling — the compile-once/load-everywhere proof.
///
/// Tuner counters: TunerTrials counts variant trials raced on replayed
/// artifacts; TunerCacheHits counts tuning sessions served by a persisted
/// decision (zero trials ran); TunerPromotions counts tuned winners
/// installed through installFinalTier with pipeline overrides;
/// TunerErrors counts tuning requests that failed outright (artifact
/// without bitcode, no correct variant, bad device index, compile failure
/// during promotion).
///
/// Policy counters (PROTEUS_POLICY=on): PolicyClassified counts roofline
/// classifications performed (one per compile, plus on-demand artifact
/// classifications by the variant manager); PolicyPrunedTrials counts
/// tuning variants the classification pruned before racing.
///
/// BitcodeParses counts KernelModuleIndex builds — the front-end parse — so
/// a kernel compiled for several arches keeps it at one (the parse-once
/// property the mixed-arch placement storm asserts).
#define PROTEUS_JIT_COUNTERS(X)                                                \
  X(Launches, "jit.launches")                                                  \
  X(StreamLaunches, "jit.stream_launches")                                     \
  X(Compilations, "jit.compilations")                                          \
  X(Tier0Compiles, "jit.tier0_compiles")                                       \
  X(Tier1Promotions, "jit.tier1_promotions")                                   \
  X(CrossDeviceLoads, "jit.cross_device_loads")                                \
  X(PerArchCompileReuse, "jit.per_arch_compile_reuse")                         \
  X(PrunedFunctions, "jit.pruned_functions")                                   \
  X(HashMemoHits, "jit.hash_memo_hits")                                        \
  X(HashMemoMisses, "jit.hash_memo_misses")                                    \
  X(FallbackLaunches, "jit.fallback_launches")                                 \
  X(DedupedWaits, "jit.deduped_waits")                                         \
  X(FleetDedupWaits, "jit.fleet_dedup_waits")                                  \
  X(FleetServedCompiles, "jit.fleet_served_compiles")                          \
  X(AnnotationRangeErrors, "jit.annotation_range_errors")                      \
  X(AnalysisDiagnostics, "jit.analysis_diagnostics")                           \
  X(AnalysisRejects, "jit.analysis_rejects")                                   \
  X(VerifyFailures, "jit.verify_failures")                                     \
  X(TunerTrials, "jit.tuner_trials")                                           \
  X(TunerCacheHits, "jit.tuner_cache_hits")                                    \
  X(TunerPromotions, "jit.tuner_promotions")                                   \
  X(TunerErrors, "jit.tuner_errors")                                           \
  X(PolicyClassified, "policy.classified")                                     \
  X(PolicyPrunedTrials, "policy.pruned_trials")                                \
  X(BitcodeParses, "jit.bitcode_parses")

/// Timers: BitcodeFetchSeconds includes the simulated device readback
/// (NVIDIA); QueueWaitSeconds is a promotion's enqueue -> worker pickup
/// latency; LaunchBlockedSeconds is compile time visible on the launch path
/// (inline compiles plus time launches spent blocked on an in-flight
/// compile; with tiering on, the launch-visible cost of the Tier-0
/// pipeline). Stage timers accumulate on every exit path, including compile
/// errors (metrics::ScopedTimer).
/// BitcodeMaterializeSeconds is the part of BitcodeParseSeconds spent
/// cloning a kernel's closure out of the parsed module (the rest is the
/// once-per-kernel read); as a sub-timer it is not a stage of its own.
#define PROTEUS_JIT_TIMERS(X)                                                  \
  X(BitcodeFetchSeconds, "jit.bitcode_fetch_seconds")                          \
  X(BitcodeParseSeconds, "jit.bitcode_parse_seconds")                          \
  X(BitcodeMaterializeSeconds, "jit.bitcode_materialize_seconds")              \
  X(LinkGlobalsSeconds, "jit.link_globals_seconds")                            \
  X(SpecializeSeconds, "jit.specialize_seconds")                               \
  X(OptimizeSeconds, "jit.optimize_seconds")                                   \
  X(AnalyzeSeconds, "jit.analyze_seconds")                                     \
  X(VerifyEachSeconds, "jit.verify_each_seconds")                              \
  X(BackendSeconds, "jit.backend_seconds")                                     \
  X(CacheLookupSeconds, "jit.cache_lookup_seconds")                            \
  X(QueueWaitSeconds, "jit.queue_wait_seconds")                                \
  X(LaunchBlockedSeconds, "jit.launch_blocked_seconds")

/// Handles to the runtime's named instruments, shared by JitRuntime and its
/// CompileService.
struct JitStatHandles {
#define PROTEUS_JIT_STAT_HANDLE(Field, Name) metrics::Counter *Field = nullptr;
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_HANDLE)
#undef PROTEUS_JIT_STAT_HANDLE
#define PROTEUS_JIT_STAT_HANDLE(Field, Name)                                   \
  metrics::TimerMetric *Field = nullptr;
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_HANDLE)
#undef PROTEUS_JIT_STAT_HANDLE
};

/// Cumulative runtime accounting: a point-in-time snapshot of the metrics
/// registry, safe to read while launches and background compiles proceed.
struct JitRuntimeStats {
#define PROTEUS_JIT_STAT_FIELD(Field, Name) uint64_t Field = 0;
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_FIELD)
#undef PROTEUS_JIT_STAT_FIELD
#define PROTEUS_JIT_STAT_FIELD(Field, Name) double Field = 0;
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_FIELD)
#undef PROTEUS_JIT_STAT_FIELD

  /// Per-pass attribution of OptimizeSeconds, keyed by pass name (from the
  /// registry's "o3.pass.<name>" timers fed by the PassManager timing hook).
  std::map<std::string, double> O3PassSeconds;

  /// The stage timers' sum (BitcodeMaterializeSeconds is already inside
  /// BitcodeParseSeconds).
  double totalCompileSeconds() const {
    return BitcodeFetchSeconds + BitcodeParseSeconds + LinkGlobalsSeconds +
           SpecializeSeconds + OptimizeSeconds + AnalyzeSeconds +
           VerifyEachSeconds + BackendSeconds;
  }

  /// Compile time hidden from the launch path by background promotions
  /// (Figure 6's launch-visible vs hidden split).
  double hiddenCompileSeconds() const {
    double Hidden = totalCompileSeconds() - LaunchBlockedSeconds;
    return Hidden > 0 ? Hidden : 0;
  }
};

/// Where a JIT kernel's bitcode lives.
struct JitKernelInfo {
  std::string Symbol;
  std::vector<uint32_t> AnnotatedArgs; // 1-based indices to fold
  /// amdgcn-sim: bitcode readable directly from the host-side image.
  std::vector<uint8_t> HostBitcode;
  /// nvptx-sim: device address/size of __jit_bc_<symbol> to read back.
  gpu::DevicePtr DeviceBitcodeAddr = 0;
  uint64_t DeviceBitcodeSize = 0;
  /// Device holding __jit_bc_<symbol> (set by program load); null means
  /// the runtime's primary device.
  gpu::Device *BitcodeDevice = nullptr;
  /// The kernel's generic (unspecialized) AOT binary: the cover a cold
  /// launch runs in AsyncMode::Fallback.
  std::vector<uint8_t> GenericObject;
  /// Architecture GenericObject was compiled for (read from the object
  /// header at registration). In a mixed-arch pool only matching devices
  /// are covered; launches on other arches compile inline instead of
  /// loading a foreign-arch object.
  GpuArch GenericArch = GpuArch::AmdGcnSim;

  bool hasGenericFor(GpuArch Arch) const {
    return !GenericObject.empty() && GenericArch == Arch;
  }
};

struct JitKernel;

/// A kernel registered with a JitRuntime, as registerKernel returns it: the
/// paper's launch key, the kernel stub's address. Stable for the runtime's
/// lifetime and cheap to copy; launching by handle skips the symbol lookup.
/// A default-constructed handle names no kernel.
class KernelHandle {
public:
  KernelHandle() = default;
  explicit operator bool() const { return Kernel != nullptr; }

private:
  friend class JitRuntime;
  explicit KernelHandle(JitKernel *K) : Kernel(K) {}
  JitKernel *Kernel = nullptr;
};

/// The runtime library instance bound to one *primary* device, optionally
/// serving a pool of further devices attached with attachDevice().
class JitRuntime {
public:
  JitRuntime(gpu::Device &Dev, uint64_t ModuleId, JitConfig Config);
  ~JitRuntime();

  JitRuntime(const JitRuntime &) = delete;
  JitRuntime &operator=(const JitRuntime &) = delete;

  /// Attaches another device to this runtime (idempotent). Attached devices
  /// share the code cache and module indexes: a specialization is compiled
  /// once per GpuArch and loaded per device. Returns the device's index for
  /// launchKernelOn. Must complete before concurrent launches begin —
  /// attachment is program-setup work, like kernel registration.
  unsigned attachDevice(gpu::Device &Dev);

  unsigned numDevices() const {
    return static_cast<unsigned>(Devices.size());
  }
  gpu::Device &device(unsigned Index) { return *Devices[Index]->Dev; }

  /// Registers a JIT-annotated kernel (done by program load) and returns
  /// its handle. Re-registering a symbol keeps the first registration (the
  /// kernels are identical; the first device's bitcode location stays
  /// authoritative) and returns its handle. Launches resolve symbols
  /// without a lock, so registering a new symbol after the first launch
  /// is a fatal error; re-registering a known one is not.
  KernelHandle registerKernel(JitKernelInfo Info);

  /// The handle of registered kernel \p Symbol, or a null handle.
  KernelHandle kernelHandle(const std::string &Symbol) const;

  /// Distinct (arch, folded arguments, launch-bounds threads) keys per
  /// kernel whose specialization hash the memo keeps; launches with further
  /// keys recompute their hash (HashMemoMisses).
  static constexpr unsigned HashMemoCapacity = 48;

  /// __jit_register_var: makes a device global's address resolvable when
  /// linking JIT modules.
  void registerVar(const std::string &Symbol, gpu::DevicePtr Address);

  /// __jit_launch_kernel: the entry point replacing direct kernel launches.
  /// Safe to call concurrently from multiple threads. Launches on the
  /// primary device's default stream (legacy barrier semantics).
  gpu::GpuError launchKernel(const std::string &Symbol, gpu::Dim3 Grid,
                             gpu::Dim3 Block,
                             const std::vector<gpu::KernelArg> &Args,
                             std::string *Error = nullptr);

  /// Launches on device \p DeviceIndex (attachDevice order; 0 = primary),
  /// optionally on an explicit stream of that device. A null \p S targets
  /// the device's default stream with full-barrier semantics; a non-null
  /// stream enqueues FIFO on its private timeline (StreamLaunches counts
  /// these). Compilation is shared: same arch -> same specialization object,
  /// loaded per device.
  gpu::GpuError launchKernelOn(unsigned DeviceIndex, KernelHandle Kernel,
                               gpu::Dim3 Grid, gpu::Dim3 Block,
                               const std::vector<gpu::KernelArg> &Args,
                               gpu::Stream *S = nullptr,
                               std::string *Error = nullptr);

  /// launchKernelOn by symbol: resolves the handle, then launches by it.
  gpu::GpuError launchKernelOn(unsigned DeviceIndex,
                               const std::string &Symbol, gpu::Dim3 Grid,
                               gpu::Dim3 Block,
                               const std::vector<gpu::KernelArg> &Args,
                               gpu::Stream *S = nullptr,
                               std::string *Error = nullptr);

  /// Compiles (or serves from the cache) the *final-tier* object for the
  /// specialization that (\p Symbol, \p Block, \p Args) resolve to, and
  /// loads it onto the target devices — the variant manager's promotion
  /// primitive. \p DeviceIndex >= 0 scopes the install to that one device;
  /// -1 installs on every attached device (winner promotion), compiling
  /// once per distinct GpuArch. Any other index fails with InvalidValue
  /// (counted in TunerErrors).
  ///
  /// With \p ReuseCached, a valid final-tier cache entry short-circuits
  /// the compile (the warm-decision path compiles nothing); otherwise the
  /// specialization is recompiled. A non-null \p O3Override replaces
  /// JitConfig::O3 for the compile — the winner's pipeline knobs — and
  /// marks the install as a tuner promotion (TunerPromotions). The loaded
  /// kernel replaces any previous mapping for the specialization hash on
  /// each target device (the Tier-1 hot-swap semantic), so the next launch
  /// of this shape runs the installed binary with zero compiles.
  gpu::GpuError installFinalTier(const std::string &Symbol, gpu::Dim3 Block,
                                 const std::vector<gpu::KernelArg> &Args,
                                 const O3Options *O3Override = nullptr,
                                 int DeviceIndex = -1,
                                 bool ReuseCached = false,
                                 std::string *Error = nullptr);

  /// Runs \p Fn on device \p DeviceIndex with that device's runtime lock
  /// held, so host code can touch a device's memory, clocks and streams
  /// without racing launches and background promotions, which the runtime
  /// serializes under the same lock (hecbench's sampled-simulation
  /// extrapolation and the tests' device readbacks use it). \p Fn must not
  /// call back into this runtime (the lock is not recursive) and must not
  /// touch any other device (the lock order forbids holding two device
  /// locks at once).
  void withDeviceLocked(unsigned DeviceIndex,
                        const std::function<void(gpu::Device &)> &Fn);

  /// Tuning-decision store, wrapped so the TunerCacheHits counter is
  /// exact: a hit here is precisely "a tuning session that raced nothing".
  std::optional<TuningDecision> lookupTuningDecision(uint64_t Key);
  void storeTuningDecision(uint64_t Key, const TuningDecision &D);

  /// Tuner accounting hooks (the variant manager is a separate layer but
  /// its counters live on this runtime's registry with the JIT stats).
  void noteTunerTrials(uint64_t N) { Stat.TunerTrials->add(N); }
  void noteTunerError() { Stat.TunerErrors->add(); }

  /// The bottleneck-aware policy store, or null when JitConfig::Policy is
  /// off. The variant manager consults it for pruning and records verdicts
  /// it computes on demand from artifact bitcode.
  CompilationPolicy *policy() { return PolicyState.get(); }

  /// Policy accounting hooks (mirroring the tuner hooks: the variant
  /// manager's policy counters live on this runtime's registry).
  void notePolicyClassified() { Stat.PolicyClassified->add(); }
  void notePolicyPrunedTrials(uint64_t N) { Stat.PolicyPrunedTrials->add(N); }

  /// Snapshot of the counters. Lock-free with respect to the hot paths:
  /// reads the relaxed-atomic instruments, no stats mutex exists.
  JitRuntimeStats stats() const;

  /// The registry backing stats(); exposes every named instrument,
  /// including the per-pass "o3.pass.<name>" timers.
  const metrics::Registry &metricsRegistry() const { return Metrics; }

  CodeCache &cache() { return Cache; }
  const JitConfig &config() const { return Config; }

  /// The live capture session when JitConfig::Capture is on, else null
  /// (test/flush access; the launch path reaches it internally).
  capture::CaptureSession *captureSession() { return CaptureSess.get(); }

  /// Waits until every background promotion scheduled so far has finished
  /// (no-op without a worker pool).
  void drain();

  /// Drops in-memory state (fresh-process simulation; persistent cache
  /// stays warm), the kernels' hash memos included. Drains background
  /// promotions first; no launch may be in flight.
  void resetInMemoryState();

private:
  /// The cold-launch ladder, cheapest rung first: the generic AOT binary
  /// (a cover), the Tier-0 baseline, the Final specialization.
  enum class Rung : uint8_t { Generic, Tier0, Final };
  static Rung rungOf(CodeTier T) {
    return T == CodeTier::Tier0 ? Rung::Tier0 : Rung::Final;
  }

  /// The kernel a device runs for one specialization, and its rung.
  struct Mapping {
    gpu::LoadedKernel *Kernel = nullptr;
    Rung Level = Rung::Final;
  };

  /// Everything the runtime holds per attached device: the device itself,
  /// the lock serializing operations against it (module loads, launches,
  /// symbol resolution, bitcode readback), and the per-device loaded-kernel
  /// maps. Elements are heap-allocated so attachDevice never moves them.
  /// See the file comment for the lock order.
  struct DeviceState {
    gpu::Device *Dev = nullptr;
    unsigned Index = 0; ///< position in Devices (attach order)
    std::mutex Lock;
    /// Specialization hash -> kernel mapped on this device (covers too).
    std::map<uint64_t, Mapping> Loaded;
    /// Kernel symbol -> loaded generic (unspecialized) binary.
    std::map<std::string, gpu::LoadedKernel *> GenericLoaded;
  };

  /// Per specialization: the device that first loaded a JIT object for it
  /// (CrossDeviceLoads / PerArchCompileReuse), and the object of its
  /// finished Final promotion (null until one finished), which every
  /// device adopts at its next launch of the specialization (mapAndLaunch).
  struct SpecRecord {
    std::optional<unsigned> Origin;
    std::shared_ptr<const std::vector<uint8_t>> Promoted;
  };

  /// True once more than one device is attached: compiled objects keep
  /// device-global references symbolic (resolved per device at load time)
  /// instead of baking the primary device's addresses into the IR.
  bool symbolicGlobals() const { return Devices.size() > 1; }

  /// False, with \p Error set, when \p Index names no attached device.
  /// Inline: the launch path checks every launch.
  bool validDevice(int64_t Index, std::string *Error) const {
    return (Index >= 0 && Index < static_cast<int64_t>(Devices.size())) ||
           deviceOutOfRange(Index, Error);
  }
  /// Sets \p Error to the out-of-range message for \p Index; false.
  bool deviceOutOfRange(int64_t Index, std::string *Error) const;

  /// Fills \p Words with what varies per launch among \p K's
  /// specialization-hash inputs, its memo key: \p Arch, each folded
  /// argument's bits (RCF on), and the launch-bounds threads (0 with LB
  /// off). Returns false (with \p Error set and AnnotationRangeErrors
  /// counted) when an annotated 1-based argument index is out of range for
  /// \p Args instead of silently skipping it.
  bool keyWords(const JitKernel &K, gpu::Dim3 Block,
                const std::vector<gpu::KernelArg> &Args, GpuArch Arch,
                uint64_t *Words, std::string *Error) const;
  /// The specialization key that keyWords' \p Words describe.
  SpecializationKey specializationKey(const JitKernel &K,
                                      const uint64_t *Words) const;
  /// The specialization hash of \p Words: served by \p K's memo
  /// (HashMemoHits), else computed and memoized (HashMemoMisses).
  uint64_t specHash(JitKernel &K, const uint64_t *Words);
  gpu::GpuError fetchBitcode(const JitKernelInfo &Info,
                             std::vector<uint8_t> &Out, std::string *Error);
  /// Fetches the kernel's bitcode into \p Out unless its module index is
  /// already built (then \p Out stays empty: compiles materialize from the
  /// index). Runs on the calling thread: the NVIDIA readback is a device
  /// operation and must not run on a compile worker.
  gpu::GpuError fetchIfUnparsed(const JitKernelInfo &Info,
                                std::vector<uint8_t> &Out, std::string *Error);
  /// The compile body: compiles one specialization at \p Tier (the
  /// CompileService publishes the object). Tier0 selects the fast O3 preset
  /// and fast register allocation and counts Tier0Compiles; Final runs the
  /// full pipeline and counts Compilations. \p Bitcode may be empty when
  /// the kernel's module index was already built. A non-null \p O3Override
  /// replaces Config.O3 (the variant manager compiling a winner under its
  /// tuned pipeline knobs); the cache entry still carries the standard
  /// final-tier fingerprint — for a tuned specialization the decision
  /// record, not the fingerprint, is the pipeline's provenance.
  CompileOutcome compileSpecialization(const std::string &Symbol,
                                       std::vector<uint8_t> Bitcode,
                                       const SpecializationKey &Key,
                                       CodeTier Tier,
                                       const O3Options *O3Override);
  /// compileSpecialization bound to its inputs, fetching the bitcode first
  /// (fetchIfUnparsed); null with \p Failed set when the fetch fails.
  CompileBody bindCompile(const JitKernelInfo &Info,
                          const SpecializationKey &Key, CodeTier Tier,
                          const O3Options *O3Override, CompileOutcome &Failed);
  /// The launch path's request for (\p Info, \p Key): binds compiles and
  /// records a finished promotion for every device mapping a lower rung to
  /// adopt.
  CompileRequest compileRequest(const JitKernelInfo &Info,
                                const SpecializationKey &Key, uint64_t Hash);
  /// Returns the kernel's parse-once module index, building (and caching)
  /// it from \p Bitcode on first use. Null with \p Error set on parse
  /// failure or when no index exists and \p Bitcode is empty.
  std::shared_ptr<const KernelModuleIndex>
  getOrBuildIndex(const std::string &Symbol,
                  const std::vector<uint8_t> &Bitcode, std::string *Error);
  /// The kernel's module index, fetching and parsing its bitcode when none
  /// is built yet; null when that fails. The NVIDIA readback takes a device
  /// lock, so call it with none held.
  std::shared_ptr<const KernelModuleIndex> indexFor(const JitKernelInfo &Info);
  /// The linkage bit of \p Info's fingerprints: the pool links device
  /// globals symbolically and the kernel's call closure references one.
  /// Any other kernel compiles to the same object in either linkage mode,
  /// so a device attached late is served the object already cached. True
  /// when the index cannot be built. Locking as indexFor.
  bool linksSymbolically(const JitKernelInfo &Info);
  /// Maps \p Hash on \p DS (DS.Lock held) at rung \p Level — \p Object,
  /// or the generic binary for Rung::Generic — and launches it. A rung a
  /// promotion has finished, or a mapping already in place, is used
  /// instead when it is at least as high; \p Object may be null when
  /// \p DS already maps \p Level.
  gpu::GpuError mapAndLaunch(DeviceState &DS, uint64_t Hash, Rung Level,
                             const std::vector<uint8_t> *Object,
                             const JitKernelInfo &Info,
                             const std::shared_ptr<const KernelModuleIndex>
                                 &CaptureIndex,
                             gpu::Dim3 Grid, gpu::Dim3 Block,
                             const std::vector<gpu::KernelArg> &Args,
                             gpu::Stream *S, std::string *Error);
  /// Launches a mapped kernel. A cover (Rung::Generic) is counted in
  /// FallbackLaunches and never captured; a specialized kernel is recorded
  /// when capture is on: reserve a ring slot (shed and launch plain when
  /// full), snapshot input regions, launch, snapshot outputs, submit.
  /// Called with DS.Lock held; \p CaptureIndex supplies the pruned-bitcode
  /// closure and may be null (capture skipped).
  gpu::GpuError launchLoaded(DeviceState &DS, const Mapping &M,
                             const JitKernelInfo &Info, uint64_t Hash,
                             const std::shared_ptr<const KernelModuleIndex>
                                 &CaptureIndex,
                             gpu::Dim3 Grid, gpu::Dim3 Block,
                             const std::vector<gpu::KernelArg> &Args,
                             gpu::Stream *S, std::string *Error);
  /// The generic binary loaded on \p DS (DS.Lock held), loading it on
  /// first use. Null when the kernel has none for DS's arch, or with
  /// \p Error set when the load fails.
  gpu::LoadedKernel *loadGeneric(DeviceState &DS, const JitKernelInfo &Info,
                                 std::string *Error);
  /// Loads the specialized \p Object for \p Hash onto \p DS (DS.Lock
  /// held) and maps it at \p Level, replacing any previous mapping.
  /// Records the first loading device as the specialization's origin and
  /// counts loads on other devices (CrossDeviceLoads, plus
  /// PerArchCompileReuse for a device's first JIT object). Null with
  /// \p Error set when the load fails.
  const Mapping *loadSpecialized(DeviceState &DS, uint64_t Hash,
                                 const std::vector<uint8_t> &Object,
                                 Rung Level, const std::string &Symbol,
                                 std::string *Error);

  gpu::Device &Dev;
  const uint64_t ModuleId;
  const JitConfig Config;
  CodeCache Cache;

  /// Named instruments behind stats(). Handles are resolved once in the
  /// constructor; updates are relaxed atomics, so launches and workers
  /// never serialize on accounting.
  metrics::Registry Metrics;
  JitStatHandles Stat;

  /// Serializes registration; guards GlobalAddresses. Kernels gains no
  /// symbol after the first launch (registerKernel aborts), so launches
  /// read it unlocked.
  std::mutex RegistryMutex;
  std::unordered_map<std::string, std::unique_ptr<JitKernel>> Kernels;
  std::map<std::string, gpu::DevicePtr> GlobalAddresses;

  /// The device pool, in attachDevice order; [0] is the primary device the
  /// runtime was constructed with. Grown only during setup (attachDevice
  /// must precede concurrent launches), read lock-free afterwards; each
  /// element carries its own device lock (see the lock-order file comment).
  std::vector<std::unique_ptr<DeviceState>> Devices;

  /// Specialization hash -> its SpecRecord. A leaf lock, also taken with a
  /// device lock held.
  std::mutex SpecMutex;
  std::unordered_map<uint64_t, SpecRecord> Specs;

  /// Parse-once module indexes, one per kernel symbol: the pruned
  /// parsed-module cache. Tier-0, Tier-1 and plain compiles all
  /// materialize their module from here instead of re-parsing bitcode.
  std::mutex IndexMutex;
  std::map<std::string, std::shared_ptr<const KernelModuleIndex>>
      ModuleIndexes;
  /// Per-kernel lock held while building its index (entries are never
  /// erased, so the mutexes outlive resetInMemoryState); taken before
  /// IndexMutex, never while a device lock is held.
  std::map<std::string, std::mutex> IndexBuildLocks;

  /// Bottleneck-aware policy store (JitConfig::Policy); null when the
  /// policy is off. Own mutex; every compile records its verdict here and
  /// the variant manager reads it to prune tuning axes.
  std::unique_ptr<CompilationPolicy> PolicyState;

  /// Live capture session (JitConfig::Capture); null when capture is off.
  /// Declared before the compile service: background compiles never touch
  /// it, but the session's writer thread must outlive nothing of the
  /// runtime it reads (the module indexes it serializes are shared_ptr-held
  /// per record).
  std::unique_ptr<capture::CaptureSession> CaptureSess;

  /// The in-flight table, fleet claim, worker pool and promotion protocol.
  /// Declared last so its pool is drained and joined before any state the
  /// compile tasks reference is destroyed.
  CompileService Service;
};

} // namespace proteus

#endif // PROTEUS_JIT_JITRUNTIME_H
