//===- Device.h - simulated GPU device --------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GPU device: global memory with a bump-with-free-list
/// allocator, a symbol table for device global variables, loaded code
/// modules, an L2 cache model, and the per-stream simulated timelines that
/// track kernel and transfer time (see Stream.h for the timeline model).
/// The HIP/CUDA-like entry points in Runtime.h operate on this object.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICE_H
#define PROTEUS_GPU_DEVICE_H

#include "codegen/MachineIR.h"
#include "codegen/Target.h"
#include "gpu/LaunchStats.h"
#include "gpu/Stream.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace proteus {
namespace gpu {

using DevicePtr = uint64_t;

/// LaunchStats counter an executed instruction counts toward. Each decoded
/// instruction names up to three; Discard absorbs the unused ones.
enum class StatSlot : uint8_t {
  Discard,
  TotalInstrs,
  VALUInsts,
  SALUInsts,
  MemLoads,
  MemStores,
  SpillLoads,
  SpillStores,
  Atomics,
  Branches,
  Barriers,
  TranscendentalInsts,
  DivInsts,
  NumSlots,
};

/// One machine instruction in the executor's decoded form: the handler for
/// its (op, sub-op, operand type), branch targets as instruction indices,
/// and the counters it counts toward. Semantics still come from
/// ir/OpSemantics.h.
struct DecodedInstr {
  /// Index into the executor's handler table (Executor.cpp).
  uint16_t Handler = 0;
  mcode::MOp Op = mcode::MOp::Nop;
  StatSlot Stats[3] = {StatSlot::Discard, StatSlot::Discard,
                       StatSlot::Discard};
  /// Cast: source and destination type kinds.
  pir::Type::Kind CastFrom = pir::Type::Kind::Void;
  pir::Type::Kind CastTo = pir::Type::Kind::Void;
  mcode::Reg Dst = 0, Src1 = 0, Src2 = 0, Src3 = 0;
  /// Immediate; Br/CondBr: taken-target index; Alloca: the local address;
  /// ReadSpecial: the geometry register.
  int64_t Imm = 0;
  /// CondBr: not-taken target index.
  uint32_t Imm2 = 0;
  /// Instructions from this one through the terminator that ends its
  /// straight-line run: the steps a thread spends once it enters here.
  uint32_t RunLength = 0;
};

/// A kernel loaded onto the device, ready to launch: the machine function's
/// header and its code decoded once at load (see decodeKernel in
/// Executor.h).
struct LoadedKernel {
  std::string Name;
  std::vector<mcode::MachineParam> Params;
  uint32_t NumRegs = 0;
  uint32_t NumSpillSlots = 0;
  uint32_t LocalBytes = 0;
  uint32_t LaunchBoundsThreads = 0;
  /// Every block's instructions back to back, entry block first.
  std::vector<DecodedInstr> Code;
  GpuArch Arch;
};

/// Device global memory: one private anonymous mapping reserved without
/// swap. Pages are committed on first touch, so untouched memory reads as
/// zero and costs nothing to create or release. Indexing and data()
/// arithmetic are those of a byte array of size() bytes.
class DeviceMemory {
public:
  explicit DeviceMemory(uint64_t Bytes);
  ~DeviceMemory();
  DeviceMemory(const DeviceMemory &) = delete;
  DeviceMemory &operator=(const DeviceMemory &) = delete;

  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  uint64_t size() const { return Bytes; }
  uint8_t *begin() { return Base; }
  uint8_t *end() { return Base + Bytes; }
  const uint8_t *begin() const { return Base; }
  const uint8_t *end() const { return Base + Bytes; }
  uint8_t &operator[](uint64_t I) { return Base[I]; }
  uint8_t operator[](uint64_t I) const { return Base[I]; }

  /// A full copy of the image (snapshots). Touches every page of the copy,
  /// so prefer data() for partial reads.
  operator std::vector<uint8_t>() const { return {begin(), end()}; }

  friend bool operator==(const DeviceMemory &M,
                         const std::vector<uint8_t> &V) {
    return M.Bytes == V.size() &&
           (M.Bytes == 0 || std::memcmp(M.Base, V.data(), M.Bytes) == 0);
  }

private:
  uint8_t *Base = nullptr;
  uint64_t Bytes = 0;
};

/// Set-associative LRU L2 cache model shared by all accesses of a launch.
/// access() is on the path of every load, store and atomic, so it divides
/// by nothing at run time: the line size is a power of two (a shift), and
/// the set count splits into a power of two (a mask) times an odd factor,
/// which is 1 on amdgcn-sim (4096 sets) and 3 on nvptx-sim (3072), a
/// modulo by a constant.
class L2Cache {
public:
  /// \p LineBytes must be a power of two.
  L2Cache(uint64_t SizeBytes, unsigned LineBytes, unsigned Ways);

  /// Simulates one access; returns true on hit.
  bool access(uint64_t Address) {
    const uint64_t Line = (Address >> LineShift) + 1; // +1: tag 0 is empty
    const size_t Base = setOf(Line) * Ways;
    uint64_t *SetTags = &Tags[Base];
    uint32_t *SetUsed = &LastUsed[Base];
    if (++Clock == 0)
      Clock = renumberStamps();
    // On a miss, the least recently used way is replaced: the first one
    // with the smallest stamp, so an empty way (stamp 0) first.
    unsigned VictimWay = 0;
    for (unsigned W = 0; W != Ways; ++W) {
      if (SetTags[W] == Line) {
        SetUsed[W] = Clock;
        return true;
      }
      if (SetUsed[W] < SetUsed[VictimWay])
        VictimWay = W;
    }
    SetTags[VictimWay] = Line;
    SetUsed[VictimWay] = Clock;
    return false;
  }

  /// Set of \p Line: exactly Line % NumSets, for every Line.
  size_t setOf(uint64_t Line) const {
    const uint64_t High = Line >> SetShift;
    const uint64_t OddPart = OddSets == 1   ? 0
                             : OddSets == 3 ? High % 3
                                            : High % OddSets;
    return static_cast<size_t>(OddPart << SetShift | (Line & SetMask));
  }

  size_t numSets() const { return NumSets; }

  void reset();

  /// Test hook: the LRU clock's next access stamps \p Next + 1.
  void setClockForTesting(uint32_t Next) { Clock = Next; }

private:
  /// The LRU clock wrapped: renumbers every set's stamps to their rank
  /// order (1 = least recent; 0 stays "never used"), which keeps each
  /// set's order exact. Returns the stamp for the access in progress.
  uint32_t renumberStamps();

  unsigned LineShift;
  unsigned Ways;
  size_t NumSets;
  unsigned SetShift;  ///< NumSets = OddSets << SetShift
  uint64_t SetMask;   ///< (1 << SetShift) - 1
  uint64_t OddSets;
  /// The tags, then the stamps. Demand-paged: sets no launch touched cost
  /// no memory (a device's L2 state is 768 KiB).
  DeviceMemory State;
  uint64_t *Tags;     // NumSets x Ways, 0 = empty
  uint32_t *LastUsed; // LRU stamps, 0 = never used
  uint32_t Clock = 0;
};

/// Outcome of Device::free — unknown and double frees are counted and
/// reported instead of silently ignored, so leak/double-free bugs in
/// multi-stream programs fail loudly.
enum class FreeStatus {
  Ok,
  Unknown,    ///< pointer was never a live allocation start
  DoubleFree, ///< pointer matches an allocation already on the free list
};

/// One simulated GPU.
class Device {
public:
  explicit Device(const TargetInfo &Target, uint64_t MemoryBytes = 1ull << 28);

  const TargetInfo &target() const { return Target; }

  /// Index of this device within its DeviceManager (0 for standalone
  /// devices); used as the device half of trace lane ids.
  unsigned ordinal() const { return Ordinal; }
  void setOrdinal(unsigned O) { Ordinal = O; }

  // -- Memory --------------------------------------------------------------

  /// Allocates \p Bytes of device memory; returns 0 on exhaustion,
  /// including requests larger than the device.
  DevicePtr allocate(uint64_t Bytes);

  /// Frees a prior allocation. Unknown pointers and double frees are
  /// diagnosed (counted, see unknownFrees()/doubleFrees()) instead of
  /// silently ignored.
  FreeStatus free(DevicePtr P);

  uint64_t unknownFrees() const { return UnknownFreeCount; }
  uint64_t doubleFrees() const { return DoubleFreeCount; }

  DeviceMemory &memory() { return Memory; }
  const DeviceMemory &memory() const { return Memory; }

  bool validRange(DevicePtr P, uint64_t Bytes) const {
    return P + Bytes <= Memory.size() && P + Bytes >= P;
  }

  /// If \p P points inside a live allocation, reports its base and size and
  /// returns true. Lets the capture subsystem decide whether an argument's
  /// raw bits name device memory worth snapshotting.
  bool findAllocation(DevicePtr P, DevicePtr *Base, uint64_t *Size) const;

  /// Every live allocation as (base, size), sorted by base address (the
  /// benchmark harness reads a device's high-water mark from it). Caller
  /// must hold whatever lock serializes operations against this device.
  std::vector<std::pair<DevicePtr, uint64_t>> liveAllocations() const {
    std::vector<std::pair<DevicePtr, uint64_t>> Out(Allocations.begin(),
                                                    Allocations.end());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  /// Reconstructs an allocation at an exact prior address (capture replay
  /// rebuilds the captured device's address map verbatim). Fails when the
  /// range is invalid or overlaps an existing allocation.
  bool claimRange(DevicePtr Base, uint64_t Bytes);

  // -- Globals --------------------------------------------------------------

  /// Registers a device global symbol at a fresh allocation, copying the
  /// initializer (zero-fill when empty). Idempotent per symbol.
  DevicePtr registerGlobal(const std::string &Symbol, uint64_t Bytes,
                           const std::vector<uint8_t> &Init);

  /// Device address of \p Symbol, or 0 when unknown (mirrors
  /// cuda/hipGetSymbolAddress).
  DevicePtr getSymbolAddress(const std::string &Symbol) const;

  /// Binds \p Symbol to an existing address without allocating (capture
  /// replay pins globals to their capture-time addresses inside ranges it
  /// already claimed). Overwrites any previous binding.
  void defineSymbol(const std::string &Symbol, DevicePtr Address) {
    Symbols[Symbol] = Address;
  }

  // -- Modules / kernels -----------------------------------------------------

  /// Loads object bytes, patching global-variable relocations against the
  /// symbol table. Returns null and sets \p Error on failure.
  LoadedKernel *loadKernel(const std::vector<uint8_t> &Object,
                           std::string *Error = nullptr);

  // -- Streams ---------------------------------------------------------------

  /// The legacy default stream (id 0); target of the synchronous API.
  Stream &defaultStream() { return *Streams.front(); }

  /// Creates a new independent stream (hip/cudaStreamCreate).
  Stream *createStream();

  /// Stream by id, or null when out of range.
  Stream *stream(unsigned Id) {
    return Id < Streams.size() ? Streams[Id].get() : nullptr;
  }

  unsigned numStreams() const { return static_cast<unsigned>(Streams.size()); }

  // -- Simulated time --------------------------------------------------------

  /// Simulated device makespan: the completion time of all work enqueued on
  /// any stream. With only the default stream in use this equals the old
  /// serial accumulate-everything clock.
  double simulatedSeconds() const {
    double Max = 0.0;
    for (const auto &S : Streams)
      if (S->tailSeconds() > Max)
        Max = S->tailSeconds();
    return Max;
  }

  /// Charges \p S seconds of serial (full-barrier) work: the op starts at
  /// the current makespan — after everything on every stream — and lands on
  /// the default stream's timeline, like a CUDA legacy-default-stream op.
  void chargeSerial(double S, const char *TraceName = nullptr) {
    defaultStream().waitUntil(simulatedSeconds());
    defaultStream().enqueue(S, TraceName);
  }

  /// Legacy name for chargeSerial (pre-stream callers).
  void addSimulatedSeconds(double S) { chargeSerial(S); }

  void resetSimulatedTime() {
    for (auto &S : Streams)
      S->resetTimeline();
    recomputeLoadGauge();
  }

  // -- Load gauge ------------------------------------------------------------
  //
  // A monotonically-published copy of the device makespan in integer
  // nanoseconds, maintained with relaxed atomics so the heterogeneous
  // scheduler can rank devices by queue depth WITHOUT taking the per-device
  // lock that serializes enqueues (reading Stream::Tail directly from
  // another thread would be a data race). Streams push tail advances here;
  // the timeline-reset paths recompute it.

  /// Published device makespan in nanoseconds; safe to read from any thread.
  uint64_t loadGaugeNs() const {
    return LoadGaugeNs.load(std::memory_order_relaxed);
  }

  /// Publishes a stream-tail advance (CAS-max; called by Stream under the
  /// owner's device lock, but readers are lock-free).
  void noteTailSeconds(double TailSec) {
    uint64_t Ns =
        TailSec > 0 ? static_cast<uint64_t>(TailSec * 1e9) : uint64_t(0);
    uint64_t Cur = LoadGaugeNs.load(std::memory_order_relaxed);
    while (Ns > Cur && !LoadGaugeNs.compare_exchange_weak(
                           Cur, Ns, std::memory_order_relaxed))
      ;
  }

  /// Re-derives the gauge from the current stream tails (after a reset,
  /// when the makespan moves backwards).
  void recomputeLoadGauge() {
    LoadGaugeNs.store(static_cast<uint64_t>(simulatedSeconds() * 1e9),
                      std::memory_order_relaxed);
  }

  /// Accumulated kernel-only simulated time (sum over all streams).
  double kernelSeconds() const { return KernelSeconds; }
  void addKernelSeconds(double S) { KernelSeconds += S; }

  L2Cache &l2() { return L2; }

  /// Counters of the most recent launch (set by the Executor).
  LaunchStats LastLaunch;

  /// Per-kernel aggregated profile (rocprof/nvprof-sim).
  std::map<std::string, LaunchStats> Profile;

  /// The executor's scratch, reused across launches (see launchKernel).
  std::vector<uint64_t> LaunchScratch;

private:
  const TargetInfo &Target;
  DeviceMemory Memory;
  uint64_t Brk = 64; // address 0 reserved as null
  std::unordered_map<uint64_t, uint64_t> Allocations; // ptr -> size
  std::vector<std::pair<uint64_t, uint64_t>> FreeList; // (ptr, size)
  std::unordered_map<std::string, DevicePtr> Symbols;
  std::vector<std::unique_ptr<LoadedKernel>> Kernels;
  L2Cache L2;
  std::vector<std::unique_ptr<Stream>> Streams;
  double KernelSeconds = 0.0;
  std::atomic<uint64_t> LoadGaugeNs{0};
  unsigned Ordinal = 0;
  uint64_t UnknownFreeCount = 0;
  uint64_t DoubleFreeCount = 0;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICE_H
