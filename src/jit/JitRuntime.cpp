//===- JitRuntime.cpp - the Proteus JIT runtime library ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/JitRuntime.h"

#include "analysis/KernelAnalyzer.h"
#include "bitcode/ModuleIndex.h"
#include "capture/Capture.h"
#include "codegen/Compiler.h"
#include "fleet/RemoteBackend.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/Hashing.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "transforms/SpecializeArgs.h"

#include <cstdio>

using namespace proteus;
using namespace proteus::gpu;

namespace {

/// Fixed-capacity open-addressing map from a launch's memo key words to
/// its specialization hash, one per registered kernel. A slot is filled
/// once and never changes: an insert writes the key words and the hash,
/// then publishes the slot's tag with a release store, so a lookup that
/// acquires a nonzero tag reads finished words. Lookups take no lock and
/// allocate nothing; inserts serialize on the memo's mutex and stop at
/// HashMemoCapacity keys, so memory stays bounded. Once full, an insert
/// returns before taking the mutex.
class SpecHashMemo {
public:
  static constexpr unsigned Slots = JitRuntime::HashMemoCapacity / 3 * 4;
  static_assert((Slots & (Slots - 1)) == 0, "slots must be a power of two");

  explicit SpecHashMemo(unsigned Width)
      : Width(Width), Words(new uint64_t[size_t(Slots) * Width]) {}

  /// Digest of a key: picks its first slot and tags it (never 0).
  static uint64_t digest(const uint64_t *Key, unsigned Width) {
    uint64_t D = 0;
    for (unsigned I = 0; I != Width; ++I) {
      D = (D ^ Key[I]) * 0x9e3779b97f4a7c15ULL;
      D ^= D >> 32;
    }
    return D | 1;
  }

  bool lookup(const uint64_t *Key, uint64_t Digest, uint64_t &Hash) const {
    for (unsigned I = 0; I != Slots; ++I) {
      const unsigned S = ((Digest >> 8) + I) & (Slots - 1);
      const uint64_t Tag = Tags[S].load(std::memory_order_acquire);
      if (Tag == 0)
        return false;
      if (Tag == Digest && matches(S, Key)) {
        Hash = Hashes[S];
        return true;
      }
    }
    return false;
  }

  void insert(const uint64_t *Key, uint64_t Digest, uint64_t Hash) {
    if (Used.load(std::memory_order_relaxed) == JitRuntime::HashMemoCapacity)
      return;
    std::lock_guard<std::mutex> Lock(InsertMutex);
    if (Used.load(std::memory_order_relaxed) == JitRuntime::HashMemoCapacity)
      return;
    for (unsigned I = 0; I != Slots; ++I) {
      const unsigned S = ((Digest >> 8) + I) & (Slots - 1);
      const uint64_t Tag = Tags[S].load(std::memory_order_relaxed);
      if (Tag == Digest && matches(S, Key))
        return; // a racing launch inserted it first
      if (Tag == 0) {
        std::copy(Key, Key + Width, &Words[size_t(S) * Width]);
        Hashes[S] = Hash;
        Tags[S].store(Digest, std::memory_order_release);
        Used.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Empties the memo. No lookup may run concurrently.
  void clear() {
    std::lock_guard<std::mutex> Lock(InsertMutex);
    for (std::atomic<uint64_t> &Tag : Tags)
      Tag.store(0, std::memory_order_relaxed);
    Used.store(0, std::memory_order_relaxed);
  }

private:
  bool matches(unsigned S, const uint64_t *Key) const {
    return std::equal(Key, Key + Width, &Words[size_t(S) * Width]);
  }

  const unsigned Width;
  std::unique_ptr<uint64_t[]> Words;
  uint64_t Hashes[Slots] = {};
  std::atomic<uint64_t> Tags[Slots] = {};
  std::mutex InsertMutex;
  std::atomic<unsigned> Used = 0;
};

/// One launch's memo key words, on the stack unless the kernel folds more
/// arguments than fit.
class KeyBuffer {
public:
  explicit KeyBuffer(unsigned Width)
      : Heap(Width > InlineWords ? new uint64_t[Width] : nullptr) {}
  uint64_t *data() { return Heap ? Heap.get() : Inline; }

private:
  static constexpr unsigned InlineWords = 16;
  uint64_t Inline[InlineWords];
  std::unique_ptr<uint64_t[]> Heap;
};

} // namespace

/// A registered kernel: what registerKernel was given, and the memo of its
/// specialization hashes. A KernelHandle points here.
struct proteus::JitKernel {
  JitKernel(JitKernelInfo I, unsigned Folded)
      : Info(std::move(I)), Folded(Folded), Memo(width()) {}

  /// Memo key words: arch, the folded arguments, launch-bounds threads.
  unsigned width() const { return Folded + 2; }

  const JitKernelInfo Info;
  /// Arguments folded per launch: the annotated ones with RCF on, else 0.
  const unsigned Folded;
  SpecHashMemo Memo;
};

JitConfig JitConfig::fromEnvironment(std::vector<std::string> *Warnings) {
  using env::Knob;
  JitConfig C;
  env::rejectRetired(Warnings);
  if (bool Off; env::read(Knob::NoRcf, Off, Warnings))
    C.EnableRCF = !Off;
  if (bool Off; env::read(Knob::NoLaunchBounds, Off, Warnings))
    C.EnableLaunchBounds = !Off;
  env::read(Knob::Async, C.Async, Warnings);
  env::read(Knob::AsyncWorkers, C.AsyncWorkers, Warnings);
  env::read(Knob::Tier, C.Tier, Warnings);
  env::read(Knob::CacheDir, C.CacheDir, Warnings);
  env::read(Knob::CacheMemLimit, C.Limits.MaxMemoryBytes, Warnings);
  env::read(Knob::CacheDiskLimit, C.Limits.MaxPersistentBytes, Warnings);
  env::read(Knob::CachePolicy, C.Limits.Policy, Warnings);
  env::read(Knob::CacheRemote, C.CacheRemote, Warnings);
  env::read(Knob::CacheSocket, C.CacheSocket, Warnings);
  env::read(Knob::CacheShards, C.Limits.Shards, Warnings);
  env::read(Knob::Analyze, C.Analyze, Warnings);
  env::read(Knob::VerifyEach, C.VerifyEachPass, Warnings);
  env::read(Knob::Capture, C.Capture, Warnings);
  env::read(Knob::CaptureDir, C.CaptureDir, Warnings);
  env::read(Knob::CaptureRing, C.CaptureRing, Warnings);
  env::read(Knob::CaptureDedup, C.CaptureDedup, Warnings);
  env::read(Knob::TuneBudget, C.TuneBudget, Warnings);
  env::read(Knob::Policy, C.Policy, Warnings);
  return C;
}

const char *proteus::asyncModeName(JitConfig::AsyncMode M) {
  return env::spellings(env::Knob::Async)[static_cast<size_t>(M)].c_str();
}

const char *proteus::analyzeModeName(JitConfig::AnalyzeMode M) {
  return env::spellings(env::Knob::Analyze)[static_cast<size_t>(M)].c_str();
}

const char *proteus::tierModeName(bool TierEnabled) {
  return env::spellings(env::Knob::Tier)[TierEnabled].c_str();
}

/// Builds the persistent-level backend for \p Config: the fleet service
/// client when PROTEUS_CACHE_REMOTE=on (socket from PROTEUS_CACHE_SOCKET,
/// defaulting to <CacheDir>/proteus-cached.sock, with the local directory
/// as its outage fallback), or null to let CodeCache build the default
/// sharded local backend.
static std::unique_ptr<fleet::CacheBackend>
makeCacheBackend(const JitConfig &Config) {
  if (!Config.CacheRemote || !Config.UsePersistentCache ||
      Config.CacheDir.empty())
    return nullptr;
  fleet::RemoteBackendOptions RO;
  RO.SocketPath = Config.CacheSocket.empty()
                      ? Config.CacheDir + "/proteus-cached.sock"
                      : Config.CacheSocket;
  RO.FallbackDir = Config.CacheDir;
  RO.Fallback = CodeCache::backendOptions(Config.Limits);
  return std::make_unique<fleet::RemoteCacheBackend>(std::move(RO));
}

JitRuntime::JitRuntime(Device &Dev, uint64_t ModuleId, JitConfig Config)
    : Dev(Dev), ModuleId(ModuleId), Config(Config),
      Cache(Config.UseMemoryCache, Config.UsePersistentCache,
            Config.CacheDir, Config.Limits, makeCacheBackend(Config)),
      // The pool runs the background promotions: of the generic cover
      // (Fallback) and of the Tier-0 baseline (tiering on).
      Service(Cache,
              Config.Async == JitConfig::AsyncMode::Fallback || Config.Tier,
              Config.AsyncWorkers, Stat) {
  Devices.emplace_back(new DeviceState);
  Devices.back()->Dev = &Dev;
#define PROTEUS_JIT_STAT_REGISTER(Field, Name)                                 \
  Stat.Field = &Metrics.counter(Name);
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_REGISTER)
#undef PROTEUS_JIT_STAT_REGISTER
#define PROTEUS_JIT_STAT_REGISTER(Field, Name)                                 \
  Stat.Field = &Metrics.timer(Name);
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_REGISTER)
#undef PROTEUS_JIT_STAT_REGISTER
  if (this->Config.Capture)
    CaptureSess = std::make_unique<capture::CaptureSession>(
        this->Config.CaptureDir, this->Config.CaptureRing, Metrics);
  if (this->Config.Policy)
    PolicyState = std::make_unique<CompilationPolicy>();
}

JitRuntime::~JitRuntime() = default;

unsigned JitRuntime::attachDevice(Device &D) {
  for (unsigned I = 0; I != Devices.size(); ++I)
    if (Devices[I]->Dev == &D)
      return I;
  Devices.emplace_back(new DeviceState);
  Devices.back()->Dev = &D;
  Devices.back()->Index = static_cast<unsigned>(Devices.size() - 1);
  Service.setSymbolicGlobals(symbolicGlobals());
  return Devices.back()->Index;
}

KernelHandle JitRuntime::registerKernel(JitKernelInfo Info) {
  {
    // First registration wins: per-device program loads re-register the
    // same kernels, and the first device's bitcode location must stay
    // authoritative (fetchBitcode reads from that device).
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    if (auto It = Kernels.find(Info.Symbol); It != Kernels.end())
      return KernelHandle(It->second.get());
    // Launches read Kernels without a lock, so a new symbol may only be
    // inserted before the first launch: an insert could rehash the table
    // under a launch resolving its symbol.
    if (Stat.Launches->value() != 0)
      reportFatalError("JitRuntime::registerKernel: kernel @" + Info.Symbol +
                       " registered after the first launch; register "
                       "every kernel before launching");
  }
  if (!Info.GenericObject.empty())
    Info.GenericArch = readObject(Info.GenericObject).Arch;
  // In Fallback mode the generic binary is loaded eagerly on the primary
  // device, so covering a cold launch there needs no module load. Other
  // devices of its arch load it when a launch first covers with it; a
  // failed load here is retried then.
  if (Config.Async == JitConfig::AsyncMode::Fallback) {
    DeviceState &DS = *Devices.front();
    std::lock_guard<std::mutex> Lock(DS.Lock);
    loadGeneric(DS, Info, nullptr);
  }
  const unsigned Folded =
      Config.EnableRCF ? static_cast<unsigned>(Info.AnnotatedArgs.size()) : 0;
  std::string Symbol = Info.Symbol;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto [It, Inserted] = Kernels.try_emplace(std::move(Symbol));
  if (Inserted)
    It->second = std::make_unique<JitKernel>(std::move(Info), Folded);
  return KernelHandle(It->second.get());
}

KernelHandle JitRuntime::kernelHandle(const std::string &Symbol) const {
  auto It = Kernels.find(Symbol);
  return It != Kernels.end() ? KernelHandle(It->second.get())
                             : KernelHandle();
}

void JitRuntime::registerVar(const std::string &Symbol, DevicePtr Address) {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  GlobalAddresses[Symbol] = Address;
}

JitRuntimeStats JitRuntime::stats() const {
  JitRuntimeStats S;
#define PROTEUS_JIT_STAT_SNAPSHOT(Field, Name) S.Field = Stat.Field->value();
  PROTEUS_JIT_COUNTERS(PROTEUS_JIT_STAT_SNAPSHOT)
#undef PROTEUS_JIT_STAT_SNAPSHOT
#define PROTEUS_JIT_STAT_SNAPSHOT(Field, Name) S.Field = Stat.Field->seconds();
  PROTEUS_JIT_TIMERS(PROTEUS_JIT_STAT_SNAPSHOT)
#undef PROTEUS_JIT_STAT_SNAPSHOT
  for (const auto &[Name, Seconds] : Metrics.timerValues())
    if (Name.rfind("o3.pass.", 0) == 0)
      S.O3PassSeconds[Name.substr(8)] = Seconds;
  return S;
}

void JitRuntime::drain() {
  Service.drain();
  if (CaptureSess)
    CaptureSess->flush(); // every submitted capture persisted (or failed)
}

void JitRuntime::resetInMemoryState() {
  drain();
  // Ascending-ordinal visit, one device lock at a time (lock order).
  for (auto &DS : Devices) {
    std::lock_guard<std::mutex> Lock(DS->Lock);
    DS->Loaded.clear();
    DS->GenericLoaded.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(SpecMutex);
    Specs.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    ModuleIndexes.clear();
  }
  for (auto &[Symbol, K] : Kernels)
    K->Memo.clear();
  Cache.clearMemory();
}

bool JitRuntime::keyWords(const JitKernel &K, Dim3 Block,
                          const std::vector<KernelArg> &Args, GpuArch Arch,
                          uint64_t *Words, std::string *Error) const {
  Words[0] = static_cast<uint64_t>(Arch);
  for (unsigned I = 0; I != K.Folded; ++I) {
    const uint32_t OneBased = K.Info.AnnotatedArgs[I];
    if (OneBased == 0 || OneBased > Args.size()) {
      // An out-of-range annotation means the launch and the annotation
      // disagree about the kernel's signature; folding a garbage value
      // (or silently not specializing) would be worse than failing.
      Stat.AnnotationRangeErrors->add();
      trace::instant("jit.annotation_range_error");
      if (Error)
        *Error = "jit-annotated argument index " + std::to_string(OneBased) +
                 " of kernel @" + K.Info.Symbol +
                 " is out of range: launch provided " +
                 std::to_string(Args.size()) +
                 " argument(s) (indices are 1-based)";
      return false;
    }
    Words[1 + I] = Args[OneBased - 1].Bits;
  }
  Words[1 + K.Folded] =
      Config.EnableLaunchBounds ? static_cast<uint32_t>(Block.count()) : 0;
  return true;
}

SpecializationKey JitRuntime::specializationKey(const JitKernel &K,
                                                const uint64_t *Words) const {
  SpecializationKey Key;
  Key.ModuleId = ModuleId;
  Key.KernelSymbol = K.Info.Symbol;
  Key.Arch = static_cast<GpuArch>(Words[0]);
  Key.FoldedArgs.reserve(K.Folded);
  for (unsigned I = 0; I != K.Folded; ++I)
    Key.FoldedArgs.push_back(
        RuntimeArgValue{K.Info.AnnotatedArgs[I] - 1, Words[1 + I]});
  Key.LaunchBoundsThreads = static_cast<uint32_t>(Words[1 + K.Folded]);
  return Key;
}

uint64_t JitRuntime::specHash(JitKernel &K, const uint64_t *Words) {
  // ModuleId, the symbol and the annotated-argument indices are fixed for
  // the runtime's lifetime, so the memo key leaves them out. Arch is not:
  // a heterogeneous device pool launches one kernel on several arches.
  const uint64_t Digest = SpecHashMemo::digest(Words, K.width());
  uint64_t Hash;
  if (K.Memo.lookup(Words, Digest, Hash)) {
    Stat.HashMemoHits->add();
    return Hash;
  }
  Stat.HashMemoMisses->add();
  Hash = computeSpecializationHash(specializationKey(K, Words));
  K.Memo.insert(Words, Digest, Hash);
  return Hash;
}

GpuError JitRuntime::fetchBitcode(const JitKernelInfo &Info,
                                  std::vector<uint8_t> &Out,
                                  std::string *Error) {
  trace::Span Sp("jit.fetch_bitcode", "jit");
  metrics::ScopedTimer FetchT(*Stat.BitcodeFetchSeconds);
  if (!Info.HostBitcode.empty()) {
    Out = Info.HostBitcode;
  } else if (Info.DeviceBitcodeAddr) {
    // Read back from the device whose program load uploaded the bitcode.
    DeviceState *BDS = Devices.front().get();
    for (auto &DS : Devices)
      if (DS->Dev == Info.BitcodeDevice)
        BDS = DS.get();
    Out.resize(Info.DeviceBitcodeSize);
    GpuError E;
    {
      std::lock_guard<std::mutex> Lock(BDS->Lock);
      E = gpuMemcpyDtoH(*BDS->Dev, Out.data(), Info.DeviceBitcodeAddr,
                        Info.DeviceBitcodeSize);
    }
    if (E != GpuError::Success) {
      if (Error)
        *Error = "failed to read __jit_bc_" + Info.Symbol +
                 " from device memory";
      return E;
    }
  } else {
    if (Error)
      *Error = "no bitcode registered for @" + Info.Symbol;
    return GpuError::InvalidValue;
  }
  return GpuError::Success;
}

std::shared_ptr<const KernelModuleIndex>
JitRuntime::getOrBuildIndex(const std::string &Symbol,
                            const std::vector<uint8_t> &Bitcode,
                            std::string *Error) {
  auto Lookup = [&]() -> std::shared_ptr<const KernelModuleIndex> {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    auto It = ModuleIndexes.find(Symbol);
    return It != ModuleIndexes.end() ? It->second : nullptr;
  };
  if (std::shared_ptr<const KernelModuleIndex> Index = Lookup())
    return Index;
  if (Bitcode.empty()) {
    if (Error)
      *Error = "no parsed module index for @" + Symbol +
               " and no bitcode to build one";
    return nullptr;
  }
  // Parse outside IndexMutex: first compiles of different kernels must not
  // serialize on parsing. Racing builders of the same kernel wait for the
  // first one's parse instead of repeating it.
  std::mutex *BuildLock;
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    BuildLock = &IndexBuildLocks[Symbol];
  }
  std::lock_guard<std::mutex> Build(*BuildLock);
  if (std::shared_ptr<const KernelModuleIndex> Index = Lookup())
    return Index;
  std::string ParseError;
  Stat.BitcodeParses->add();
  std::shared_ptr<const KernelModuleIndex> Index = [&] {
    trace::Span Sp("compile.parse", "jit");
    metrics::ScopedTimer T(*Stat.BitcodeParseSeconds);
    return KernelModuleIndex::create(Bitcode, ParseError);
  }();
  if (!Index) {
    if (Error)
      *Error = "corrupt kernel bitcode for @" + Symbol + ": " + ParseError;
    return nullptr;
  }
  // Defensive mode: verify everything the bitcode contained, before any
  // pruned materialization can drop an unreachable-but-broken function.
  // Failures are not cached — each retry re-parses and re-reports.
  if (Config.VerifyIR) {
    pir::VerifyResult VR = pir::verifyModule(Index->prototype());
    if (!VR.ok()) {
      if (Error)
        *Error = "kernel bitcode for @" + Symbol + " failed verification:\n" +
                 VR.message();
      return nullptr;
    }
  }
  std::lock_guard<std::mutex> Lock(IndexMutex);
  ModuleIndexes.emplace(Symbol, Index);
  return Index;
}

CompileOutcome JitRuntime::compileSpecialization(
    const std::string &Symbol, std::vector<uint8_t> Bitcode,
    const SpecializationKey &Key, CodeTier Tier, const O3Options *O3Override) {
  CompileOutcome Out;
  const bool Tier0 = Tier == CodeTier::Tier0;
  if (Tier0)
    Stat.Tier0Compiles->add();
  else
    Stat.Compilations->add();
  trace::Span CompileSp(Tier0 ? "jit.compile.tier0" : "jit.compile", "jit");

  // Stage timers are RAII-scoped (metrics::ScopedTimer) so every exit path
  // — including the error returns below — records the time spent.

  // (1) Materialize the kernel module from the parse-once index: the
  // bitcode is parsed at most once per kernel and runtime lifetime; each
  // compile clones only the launched kernel's reachable call closure into
  // a fresh context it owns exclusively.
  std::string IndexError;
  std::shared_ptr<const KernelModuleIndex> Index =
      getOrBuildIndex(Symbol, Bitcode, &IndexError);
  if (!Index) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = std::move(IndexError);
    return Out;
  }
  pir::Context Ctx;
  std::unique_ptr<pir::Module> MOwner = [&] {
    trace::Span Sp("compile.materialize", "jit");
    metrics::ScopedTimer T(*Stat.BitcodeParseSeconds);
    metrics::ScopedTimer TM(*Stat.BitcodeMaterializeSeconds);
    uint64_t Pruned = 0;
    std::unique_ptr<pir::Module> M = Index->materialize(Ctx, Symbol, &Pruned);
    if (M)
      Stat.PrunedFunctions->add(Pruned);
    return M;
  }();
  if (!MOwner) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "bitcode for @" + Symbol + " does not contain the kernel";
    return Out;
  }
  pir::Module &M = *MOwner;
  pir::Function *F = M.getFunction(Symbol);
  if (!F || !F->isKernel()) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "bitcode for @" + Symbol + " does not contain the kernel";
    return Out;
  }
  // (2) Link device globals. Single-device mode replaces references with
  // their resolved device addresses (so JIT code shares state with AOT
  // code, and O3 can fold the constant addresses): addresses registered
  // through __jit_register_var are snapshotted; unknown symbols fall back
  // to the vendor runtime's table (a device operation, taken under the
  // primary device's lock). Multi-device mode keeps the references
  // symbolic — one object serves every same-arch device, and the backend
  // emits load-time relocations the loader resolves against each device's
  // own symbol table.
  if (!symbolicGlobals()) {
    std::map<std::string, DevicePtr> Globals;
    {
      std::lock_guard<std::mutex> Lock(RegistryMutex);
      Globals = GlobalAddresses;
    }
    trace::Span Sp("compile.link_globals", "jit");
    metrics::ScopedTimer T(*Stat.LinkGlobalsSeconds);
    for (const auto &G : M.globals()) {
      if (!G->hasUses())
        continue;
      auto AIt = Globals.find(G->getName());
      DevicePtr Addr = AIt != Globals.end() ? AIt->second : 0;
      if (!Addr) {
        DeviceState &DS = *Devices.front();
        std::lock_guard<std::mutex> Lock(DS.Lock);
        gpuGetSymbolAddress(*DS.Dev, &Addr, G->getName());
      }
      if (!Addr) {
        Out.Err = GpuError::NotFound;
        Out.Message = "cannot link device global @" + G->getName();
        return Out;
      }
      G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
    }
  }

  // (3) Specialize.
  {
    trace::Span Sp("compile.specialize", "jit");
    metrics::ScopedTimer T(*Stat.SpecializeSeconds);
    if (Config.EnableRCF && !Key.FoldedArgs.empty())
      specializeArguments(*F, Key.FoldedArgs);
    if (Config.EnableLaunchBounds)
      specializeLaunchBounds(*F, Key.LaunchBoundsThreads);
  }

  // (4) Aggressive O3, with per-pass attribution: the pass manager's timing
  // hook feeds one "o3.pass.<name>" timer per pass (surfaced through
  // JitRuntimeStats::O3PassSeconds), and each pass invocation emits an
  // "o3.<name>" trace span. In verify-each mode (PROTEUS_VERIFY_EACH=1) a
  // post-pass hook re-verifies the IR after every pass invocation and
  // attributes the first breakage to the offending pass by name — failing
  // this compile rather than emitting a miscompiled kernel (and rather than
  // aborting the process like the PassManager's own test-mode VerifyEach).
  std::string VerifyEachFailure;
  {
    trace::Span Sp("compile.o3", "jit");
    metrics::ScopedTimer T(*Stat.OptimizeSeconds);
    // Tier-0 swaps in the fast preset (inline + mem2reg + one InstCombine
    // + DCE, single iteration) while keeping every other O3 knob. The
    // variant manager overrides the whole knob set when compiling a trial
    // or a tuned winner.
    O3Options O3Opts = O3Override ? *O3Override : Config.O3;
    if (Tier0)
      O3Opts.Preset = O3Preset::Fast;
    std::unique_ptr<PassManager> PM = buildO3Pipeline(O3Opts);
    PM->setTimingHook([this](const std::string &PassName, double Seconds) {
      Metrics.timer("o3.pass." + PassName).addSeconds(Seconds);
    });
    if (Config.VerifyEachPass)
      PM->setPostPassHook([&](const std::string &PassName, pir::Function &Fn) {
        metrics::ScopedTimer VT(*Stat.VerifyEachSeconds);
        if (!VerifyEachFailure.empty())
          return; // the first broken pass is the actionable one
        pir::VerifyResult VR = pir::verifyFunction(Fn);
        if (!VR.ok()) {
          Stat.VerifyFailures->add();
          trace::instant("jit.verify_each_failure");
          VerifyEachFailure = "pass '" + PassName + "' broke function @" +
                              Fn.getName() + ":\n" + VR.message();
        }
      });
    PM->run(M);
  }
  if (!VerifyEachFailure.empty()) {
    Out.Err = GpuError::InvalidValue;
    Out.Message = "verify-each: " + VerifyEachFailure;
    return Out;
  }

  // (4b) Kernel sanitizer: the JIT sees the exact specialized, optimized
  // kernel that is about to run on-device, so this is where GPU-semantics
  // bugs (divergent barriers, shared-scratch races/OOB/uninitialized
  // reads) are reported — as warnings, or as a launch failure in
  // AnalyzeMode::Error.
  if (Config.Analyze != JitConfig::AnalyzeMode::Off) {
    trace::Span Sp("compile.analyze", "jit");
    metrics::ScopedTimer T(*Stat.AnalyzeSeconds);
    pir::analysis::AnalysisReport AR = pir::analysis::analyzeKernel(*F);
    if (!AR.clean()) {
      Stat.AnalysisDiagnostics->add(AR.Diags.size());
      trace::instant("jit.analysis_diagnostic");
      if (Config.Analyze == JitConfig::AnalyzeMode::Error) {
        Stat.AnalysisRejects->add();
        Out.Err = GpuError::InvalidValue;
        Out.Message = "kernel @" + Symbol + " failed launch-time analysis (" +
                      std::to_string(AR.Diags.size()) + " finding(s)):\n" +
                      AR.message();
        return Out;
      }
      for (const pir::analysis::LintDiagnostic &D : AR.Diags)
        std::fprintf(stderr, "proteus: warning: %s\n", D.render().c_str());
    }
  }

  // (5) Backend (includes the PTX assembler detour on nvptx-sim). Tier-0
  // uses the single-pass register allocator.
  BackendStats BS;
  {
    trace::Span Sp("compile.backend", "jit");
    metrics::ScopedTimer T(*Stat.BackendSeconds);
    BackendOptions BO;
    BO.RegAlloc.Fast = Tier0;
    // The backend target comes from the specialization key, not from any
    // particular device: the object is compiled once per arch and loaded
    // onto every device of that arch.
    Out.Object = compileKernelToObject(*F, getTarget(Key.Arch), &BS, BO);
  }

  // (5b) Bottleneck classification: the JIT sees the final specialized,
  // optimized IR and the allocator's spill feedback together, so this is
  // the one point where a trustworthy roofline verdict exists. Recorded on
  // the policy store for the variant manager's pruning and persisted with
  // any later tuning decision.
  if (PolicyState) {
    pir::analysis::RegPressureFeedback Reg;
    Reg.RegsUsed = BS.RA.RegsUsed;
    Reg.SpillSlots = BS.RA.SpillSlots;
    Reg.SpillLoads = BS.RA.SpillLoads;
    Reg.SpillStores = BS.RA.SpillStores;
    Reg.RegisterBudget = BS.RegisterBudget;
    pir::analysis::RooflineReport RR =
        pir::analysis::classifyKernel(*F, getTarget(Key.Arch), &Reg);
    PolicyVerdict V;
    V.Class = RR.Class;
    V.ArithmeticIntensity = RR.ArithmeticIntensity;
    V.RidgeFlopsPerByte = RR.Model.ridgeFlopsPerByte();
    PolicyState->recordVerdict(Symbol, Key.Arch, V);
    Stat.PolicyClassified->add();
  }

  return Out;
}

GpuError JitRuntime::fetchIfUnparsed(const JitKernelInfo &Info,
                                     std::vector<uint8_t> &Out,
                                     std::string *Error) {
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    if (ModuleIndexes.count(Info.Symbol))
      return GpuError::Success;
  }
  return fetchBitcode(Info, Out, Error);
}

CompileBody JitRuntime::bindCompile(const JitKernelInfo &Info,
                                    const SpecializationKey &Key,
                                    CodeTier Tier, const O3Options *O3Override,
                                    CompileOutcome &Failed) {
  std::vector<uint8_t> Bitcode;
  Failed.Err = fetchIfUnparsed(Info, Bitcode, &Failed.Message);
  if (Failed.Err != GpuError::Success)
    return nullptr;
  return [this, Symbol = Info.Symbol, Key, Tier, O3Override,
          BC = std::move(Bitcode)]() mutable {
    return compileSpecialization(Symbol, std::move(BC), Key, Tier,
                                 O3Override);
  };
}

CompileRequest JitRuntime::compileRequest(const JitKernelInfo &Info,
                                          const SpecializationKey &Key,
                                          uint64_t Hash) {
  CompileRequest R;
  R.Hash = Hash;
  R.Bind = [this, &Info, Key](CodeTier Tier, CompileOutcome &Failed) {
    return bindCompile(Info, Key, Tier, nullptr, Failed);
  };
  // The one hot-swap: records the promoted rung, which every device
  // mapping a lower one adopts under its own lock at its next launch of
  // this shape (mapAndLaunch). The worker never waits for a device lock
  // that a launch storm holds, and a rung is never lowered.
  R.Promoted = [this, Hash](const CompileOutcome &O) {
    const Rung Level = rungOf(O.Tier);
    {
      std::lock_guard<std::mutex> Lock(SpecMutex);
      SpecRecord &Spec = Specs[Hash];
      if (Spec.Promoted >= Level)
        return;
      Spec.Promoted = Level;
      Spec.PromotedObject =
          std::make_shared<const std::vector<uint8_t>>(O.Object);
    }
    if (Level == Rung::Final) {
      // One promotion per specialization, however many devices adopt it.
      Stat.Tier1Promotions->add();
      trace::instant("jit.tier1_promotion");
    }
  };
  return R;
}

LoadedKernel *JitRuntime::loadGeneric(DeviceState &DS,
                                      const JitKernelInfo &Info,
                                      std::string *Error) {
  if (!Info.hasGenericFor(DS.Dev->target().Arch))
    return nullptr;
  auto [It, Inserted] = DS.GenericLoaded.try_emplace(Info.Symbol, nullptr);
  if (!Inserted)
    return It->second;
  std::string LoadError;
  if (gpuModuleLoad(*DS.Dev, &It->second, Info.GenericObject, &LoadError) !=
      GpuError::Success) {
    DS.GenericLoaded.erase(It);
    if (Error)
      *Error = "failed to load generic binary for @" + Info.Symbol + ": " +
               LoadError;
    return nullptr;
  }
  return It->second;
}

const JitRuntime::Mapping *
JitRuntime::loadSpecialized(DeviceState &DS, uint64_t Hash,
                            const std::vector<uint8_t> &Object, Rung Level,
                            const std::string &Symbol, std::string *Error) {
  trace::Span Sp("jit.module_load", "jit");
  LoadedKernel *K = nullptr;
  std::string LoadError;
  if (gpuModuleLoad(*DS.Dev, &K, Object, &LoadError) != GpuError::Success) {
    if (Error)
      *Error = "failed to load JIT object for @" + Symbol + ": " + LoadError;
    return nullptr;
  }
  Mapping &M = DS.Loaded[Hash];
  // The device's first JIT object for this hash (at most a cover mapped).
  const bool Fresh = !M.Kernel || M.Level == Rung::Generic;
  M = Mapping{K, Level};
  // Cross-device accounting: the first device to load a specialization is
  // its origin. A load on any other device reused the per-arch compile
  // instead of triggering its own; PerArchCompileReuse counts that once
  // per (specialization, device), not again for a hot-swap.
  unsigned Origin;
  {
    std::lock_guard<std::mutex> Lock(SpecMutex);
    std::optional<unsigned> &O = Specs[Hash].Origin;
    if (!O)
      O = DS.Index;
    Origin = *O;
  }
  if (Origin != DS.Index) {
    Stat.CrossDeviceLoads->add();
    if (Fresh)
      Stat.PerArchCompileReuse->add();
    trace::instant("jit.cross_device_load");
  }
  return &M;
}

GpuError JitRuntime::mapAndLaunch(
    DeviceState &DS, uint64_t Hash, Rung Level,
    const std::vector<uint8_t> *Object, const JitKernelInfo &Info,
    const std::shared_ptr<const KernelModuleIndex> &CaptureIndex, Dim3 Grid,
    Dim3 Block, const std::vector<KernelArg> &Args, Stream *S,
    std::string *Error) {
  // A finished promotion outranks the rung this launch obtained or found.
  std::shared_ptr<const std::vector<uint8_t>> Promoted;
  {
    std::lock_guard<std::mutex> SpecLock(SpecMutex);
    auto It = Specs.find(Hash);
    if (It != Specs.end() && It->second.Promoted > Level) {
      Level = It->second.Promoted;
      Promoted = It->second.PromotedObject;
      Object = Promoted.get();
    }
  }
  const Mapping *M = nullptr;
  if (auto It = DS.Loaded.find(Hash);
      It != DS.Loaded.end() && It->second.Level >= Level)
    M = &It->second; // mapped already, by this launch's caller or a racer
  else if (Level != Rung::Generic)
    M = loadSpecialized(DS, Hash, *Object, Level, Info.Symbol, Error);
  else if (LoadedKernel *K = loadGeneric(DS, Info, Error))
    M = &(DS.Loaded[Hash] = Mapping{K, Rung::Generic});
  if (!M)
    return GpuError::LaunchFailure;
  return launchLoaded(DS, *M, Info, Hash, CaptureIndex, Grid, Block, Args, S,
                      Error);
}

GpuError JitRuntime::launchLoaded(
    DeviceState &DS, const Mapping &M, const JitKernelInfo &Info,
    uint64_t Hash,
    const std::shared_ptr<const KernelModuleIndex> &CaptureIndex, Dim3 Grid,
    Dim3 Block, const std::vector<KernelArg> &Args, Stream *S,
    std::string *Error) {
  trace::Span Sp("jit.kernel_launch", "jit");
  LoadedKernel &K = *M.Kernel;
  if (M.Level == Rung::Generic) {
    // The cover runs the unspecialized AOT binary: counted, never captured.
    Stat.FallbackLaunches->add();
    trace::instant("jit.fallback_launch");
    return gpuLaunchKernelAsync(*DS.Dev, K, Grid, Block, Args, S, Error);
  }
  // Skip capture when it is off, the kernel's closure is unavailable, this
  // launch shape was already recorded (dedup mode counts capture.dedup), or
  // the ring is full (tryReserve counts the drop) — the launch itself must
  // never block or fail on account of capture.
  uint64_t DedupKey = 0;
  if (CaptureSess && Config.CaptureDedup) {
    FNV1aHash KeyHash;
    KeyHash.update(Hash);
    KeyHash.update(Grid.X);
    KeyHash.update(Grid.Y);
    KeyHash.update(Grid.Z);
    KeyHash.update(Block.X);
    KeyHash.update(Block.Y);
    KeyHash.update(Block.Z);
    for (const KernelArg &Arg : Args)
      KeyHash.update(Arg.Bits);
    DedupKey = KeyHash.digest();
    if (DedupKey == 0) // 0 means "capture every launch" to the session
      DedupKey = 1;
  }
  if (!CaptureSess || !CaptureIndex || !CaptureSess->tryReserve(DedupKey))
    return gpuLaunchKernelAsync(*DS.Dev, K, Grid, Block, Args, S, Error);

  capture::PendingRecord Rec;
  Rec.Index = CaptureIndex;
  capture::CaptureArtifact &A = Rec.Artifact;
  A.ModuleId = ModuleId;
  A.KernelSymbol = Info.Symbol;
  A.Arch = DS.Dev->target().Arch;
  A.Grid = Grid;
  A.Block = Block;
  A.ArgBits.reserve(Args.size());
  for (const KernelArg &Arg : Args)
    A.ArgBits.push_back(Arg.Bits);
  A.AnnotatedArgs = Info.AnnotatedArgs;
  A.EnableRCF = Config.EnableRCF;
  A.EnableLaunchBounds = Config.EnableLaunchBounds;
  A.TierMode = Config.Tier;
  A.SpecializationHash = Hash;
  A.PipelineFingerprint =
      jitPipelineFingerprint(CodeTier::Final, symbolicGlobals());
  A.DeviceMemoryBytes = DS.Dev->memory().size();
  // Snapshot candidates: every argument's raw bits (non-pointer values that
  // fall outside any allocation are skipped by snapshotRegions; a scalar
  // that happens to alias an allocation is over-captured, which is safe)
  // plus the device addresses of the kernel closure's globals.
  std::vector<uint64_t> Candidates = A.ArgBits;
  for (const std::string &G : CaptureIndex->closureGlobalNames(Info.Symbol)) {
    DevicePtr Addr = DS.Dev->getSymbolAddress(G);
    if (Addr) {
      A.Globals.push_back({G, Addr});
      Candidates.push_back(Addr);
    }
  }
  A.Regions = capture::snapshotRegions(*DS.Dev, Candidates);

  GpuError E = gpuLaunchKernelAsync(*DS.Dev, K, Grid, Block, Args, S, Error);
  if (E != GpuError::Success) {
    // A failed launch has no output state worth replaying; return the ring
    // slot without persisting anything (counted as capture.skips) and
    // un-mark the shape so a later successful launch can capture it.
    CaptureSess->release(DedupKey);
    return E;
  }
  // The simulator applies memory effects synchronously in host enqueue
  // order, even on async streams, so the post snapshot here is exact.
  capture::fillPostBytes(*DS.Dev, A.Regions);
  CaptureSess->submit(std::move(Rec));
  return E;
}

GpuError JitRuntime::launchKernel(const std::string &Symbol, Dim3 Grid,
                                  Dim3 Block,
                                  const std::vector<KernelArg> &Args,
                                  std::string *Error) {
  return launchKernelOn(0, Symbol, Grid, Block, Args, nullptr, Error);
}

GpuError JitRuntime::launchKernelOn(unsigned DeviceIndex,
                                    const std::string &Symbol, Dim3 Grid,
                                    Dim3 Block,
                                    const std::vector<KernelArg> &Args,
                                    Stream *S, std::string *Error) {
  KernelHandle Kernel = kernelHandle(Symbol);
  if (!Kernel) {
    if (Error)
      *Error = "kernel @" + Symbol + " is not registered for JIT";
    return GpuError::NotFound;
  }
  return launchKernelOn(DeviceIndex, Kernel, Grid, Block, Args, S, Error);
}

GpuError JitRuntime::launchKernelOn(unsigned DeviceIndex, KernelHandle Kernel,
                                    Dim3 Grid, Dim3 Block,
                                    const std::vector<KernelArg> &Args,
                                    Stream *S, std::string *Error) {
  if (!validDevice(DeviceIndex, Error))
    return GpuError::InvalidValue;
  DeviceState &DS = *Devices[DeviceIndex];
  if (S && &S->device() != DS.Dev) {
    if (Error)
      *Error = "stream does not belong to device " +
               std::to_string(DeviceIndex);
    return GpuError::InvalidValue;
  }
  if (!Kernel) {
    if (Error)
      *Error = "launch of a null kernel handle";
    return GpuError::InvalidValue;
  }
  trace::Span LaunchSp("jit.launch", "jit");
  Stat.Launches->add();
  if (S)
    Stat.StreamLaunches->add();
  JitKernel &K = *Kernel.Kernel;
  const JitKernelInfo &Info = K.Info;

  KeyBuffer Words(K.width());
  {
    trace::Span Sp("jit.build_key", "jit");
    if (!keyWords(K, Block, Args, DS.Dev->target().Arch, Words.data(), Error))
      return GpuError::InvalidValue;
  }
  const uint64_t Hash = specHash(K, Words.data());

  // Capture needs the kernel's module index (the pruned-bitcode source) in
  // hand before any device lock is taken: building it may fetch bitcode,
  // and the NVIDIA readback locks the bitcode-holding device. Once built
  // the index is a map lookup; failure just means this launch goes
  // uncaptured.
  std::shared_ptr<const KernelModuleIndex> CaptureIndex;
  if (CaptureSess) {
    CaptureIndex = getOrBuildIndex(Info.Symbol, {}, nullptr);
    if (!CaptureIndex) {
      std::vector<uint8_t> Bitcode;
      if (fetchBitcode(Info, Bitcode, nullptr) == GpuError::Success)
        CaptureIndex = getOrBuildIndex(Info.Symbol, Bitcode, nullptr);
    }
  }

  // --- Already mapped on this device (a cover included)? -------------------
  // A mapping below Final first adopts a finished promotion.
  {
    std::lock_guard<std::mutex> Lock(DS.Lock);
    if (auto LIt = DS.Loaded.find(Hash); LIt != DS.Loaded.end())
      return LIt->second.Level == Rung::Final
                 ? launchLoaded(DS, LIt->second, Info, Hash, CaptureIndex,
                                Grid, Block, Args, S, Error)
                 : mapAndLaunch(DS, Hash, LIt->second.Level, nullptr, Info,
                                CaptureIndex, Grid, Block, Args, S, Error);
  }

  // --- Cold: the cheapest rung ready now (see the file comment) ------------
  const CodeTier Wanted = Config.Tier ? CodeTier::Tier0 : CodeTier::Final;
  const bool Cover = Config.Async == JitConfig::AsyncMode::Fallback &&
                     Info.hasGenericFor(DS.Dev->target().Arch);
  std::shared_future<CompileOutcome> F = Service.obtain(
      compileRequest(Info, specializationKey(K, Words.data()), Hash), Wanted,
      Cover);
  Rung Level = Rung::Generic;
  const std::vector<uint8_t> *Object = nullptr;
  if (F.valid()) {
    const CompileOutcome &O = Service.wait(F);
    if (O.Err != GpuError::Success) {
      if (Error)
        *Error = O.Message;
      return O.Err;
    }
    Level = rungOf(O.Tier);
    Object = &O.Object;
  }
  std::lock_guard<std::mutex> Lock(DS.Lock);
  return mapAndLaunch(DS, Hash, Level, Object, Info, CaptureIndex, Grid,
                      Block, Args, S, Error);
}

bool JitRuntime::deviceOutOfRange(int64_t Index, std::string *Error) const {
  if (Error)
    *Error = "device index " + std::to_string(Index) + " out of range (" +
             std::to_string(Devices.size()) + " device(s) attached)";
  return false;
}

std::optional<TuningDecision> JitRuntime::lookupTuningDecision(uint64_t Key) {
  std::optional<TuningDecision> D = Cache.lookupTuningDecision(Key);
  if (D) {
    Stat.TunerCacheHits->add();
    trace::instant("jit.tuner_cache_hit");
  }
  return D;
}

void JitRuntime::storeTuningDecision(uint64_t Key, const TuningDecision &D) {
  Cache.storeTuningDecision(Key, D);
}

GpuError JitRuntime::installFinalTier(const std::string &Symbol, Dim3 Block,
                                      const std::vector<KernelArg> &Args,
                                      const O3Options *O3Override,
                                      int DeviceIndex, bool ReuseCached,
                                      std::string *Error) {
  auto Fail = [&](GpuError E) {
    Stat.TunerErrors->add();
    return E;
  };
  if (DeviceIndex != -1 && !validDevice(DeviceIndex, Error))
    return Fail(GpuError::InvalidValue);
  KernelHandle Kernel = kernelHandle(Symbol);
  if (!Kernel) {
    if (Error)
      *Error = "kernel @" + Symbol + " is not registered for JIT";
    return Fail(GpuError::NotFound);
  }
  JitKernel &K = *Kernel.Kernel;

  // One compile (or cache fetch) per distinct architecture in the target
  // set; like the launch path, the same object then serves every device of
  // that arch. Devices are visited in ascending ordinal, one lock at a
  // time (lock order), and the load replaces any previous mapping for the
  // specialization — the Tier-1 hot-swap semantic, so a Tier-0 binary a
  // racing launch installed can never outlive this install.
  std::map<GpuArch, std::pair<uint64_t, std::vector<uint8_t>>> PerArch;
  bool AnyLoaded = false;
  for (unsigned T = 0; T != Devices.size(); ++T) {
    if (DeviceIndex != -1 && T != static_cast<unsigned>(DeviceIndex))
      continue;
    DeviceState &DS = *Devices[T];
    GpuArch Arch = DS.Dev->target().Arch;
    auto AIt = PerArch.find(Arch);
    if (AIt == PerArch.end()) {
      KeyBuffer Words(K.width());
      if (!keyWords(K, Block, Args, Arch, Words.data(), Error))
        return Fail(GpuError::InvalidValue);
      const uint64_t Hash = specHash(K, Words.data());
      // Only a final-tier entry from the current pipeline qualifies: the
      // warm path must not pin a Tier-0 baseline or a stale artifact — in
      // particular, an install racing an in-flight Tier-1 promotion
      // recompiles rather than loading the Tier-0 placeholder.
      std::optional<CachedCode> CC;
      if (!ReuseCached || !(CC = Service.servable(Hash, CodeTier::Final))) {
        // A tuner install (O3Override) skips the fleet claim: it needs the
        // object built with the winner's knobs, not whatever someone else
        // published.
        CompileOutcome O;
        if (CompileBody Body =
                bindCompile(K.Info, specializationKey(K, Words.data()),
                            CodeTier::Final, O3Override, O))
          O = Service.compile(Hash, CodeTier::Final, Body,
                              /*Claim=*/!O3Override);
        if (O.Err != GpuError::Success) {
          if (Error)
            *Error = O.Message;
          return Fail(O.Err);
        }
        CC = CachedCode{std::move(O.Object)};
      }
      AIt = PerArch.emplace(Arch, std::make_pair(Hash, std::move(CC->Object)))
                .first;
    }
    std::lock_guard<std::mutex> Lock(DS.Lock);
    if (!loadSpecialized(DS, AIt->second.first, AIt->second.second,
                         Rung::Final, Symbol, Error))
      return Fail(GpuError::LaunchFailure);
    AnyLoaded = true;
  }
  if (AnyLoaded && O3Override) {
    // One promotion per tuning decision, however many devices (and arches)
    // the install reached.
    Stat.TunerPromotions->add();
    trace::instant("jit.tuner_promotion");
  }
  return GpuError::Success;
}

void JitRuntime::withDeviceLocked(
    unsigned DeviceIndex, const std::function<void(Device &)> &Fn) {
  DeviceState &DS = *Devices[DeviceIndex];
  std::lock_guard<std::mutex> Lock(DS.Lock);
  Fn(*DS.Dev);
}
