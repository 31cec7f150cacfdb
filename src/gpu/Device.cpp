//===- Device.cpp - simulated GPU device ------------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/Device.h"

#include "codegen/ObjectFile.h"
#include "gpu/Executor.h"
#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include <sys/mman.h>

using namespace proteus;
using namespace proteus::gpu;

void LaunchStats::accumulate(const LaunchStats &O) {
  Blocks += O.Blocks;
  ThreadsPerBlock = O.ThreadsPerBlock;
  TotalInstrs += O.TotalInstrs;
  VALUInsts += O.VALUInsts;
  SALUInsts += O.SALUInsts;
  MemLoads += O.MemLoads;
  MemStores += O.MemStores;
  SpillLoads += O.SpillLoads;
  SpillStores += O.SpillStores;
  Atomics += O.Atomics;
  Branches += O.Branches;
  Barriers += O.Barriers;
  TranscendentalInsts += O.TranscendentalInsts;
  DivInsts += O.DivInsts;
  L2Hits += O.L2Hits;
  L2Misses += O.L2Misses;
  RegsUsed = std::max(RegsUsed, O.RegsUsed);
  SpillSlots = std::max(SpillSlots, O.SpillSlots);
  LaunchBoundsThreads = O.LaunchBoundsThreads;
  DurationSec += O.DurationSec;
  // Keep the most recent derived rates (they are per-launch metrics).
  Occupancy = O.Occupancy;
  IPC = O.IPC;
  VALUBusyPct = O.VALUBusyPct;
  StallPct = O.StallPct;
}

L2Cache::L2Cache(uint64_t SizeBytes, unsigned LineBytes, unsigned Ways)
    : LineShift(static_cast<unsigned>(std::countr_zero(LineBytes))),
      Ways(Ways),
      NumSets(std::max<uint64_t>(1, SizeBytes / LineBytes / Ways)),
      SetShift(static_cast<unsigned>(std::countr_zero(NumSets))),
      SetMask((uint64_t(1) << SetShift) - 1), OddSets(NumSets >> SetShift),
      State(NumSets * Ways * (sizeof(uint64_t) + sizeof(uint32_t))),
      Tags(reinterpret_cast<uint64_t *>(State.data())),
      LastUsed(reinterpret_cast<uint32_t *>(Tags + NumSets * Ways)) {
  if (!std::has_single_bit(LineBytes))
    reportFatalError("L2 line size must be a power of two");
}

uint32_t L2Cache::renumberStamps() {
  std::vector<unsigned> Order(Ways);
  for (size_t Set = 0; Set != NumSets; ++Set) {
    uint32_t *SetUsed = &LastUsed[Set * Ways];
    for (unsigned W = 0; W != Ways; ++W)
      Order[W] = W;
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return SetUsed[A] < SetUsed[B];
    });
    uint32_t Rank = 0;
    for (unsigned W : Order)
      if (SetUsed[W] != 0)
        SetUsed[W] = ++Rank;
  }
  return Ways + 1;
}

void L2Cache::reset() {
  std::memset(State.data(), 0, State.size());
  Clock = 0;
}

DeviceMemory::DeviceMemory(uint64_t Bytes) : Bytes(Bytes) {
  if (Bytes == 0)
    return;
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    reportFatalError("device memory: cannot map " + std::to_string(Bytes) +
                     " bytes");
  Base = static_cast<uint8_t *>(P);
}

DeviceMemory::~DeviceMemory() {
  if (Base)
    munmap(Base, Bytes);
}

Device::Device(const TargetInfo &Target, uint64_t MemoryBytes)
    : Target(Target), Memory(MemoryBytes), L2(Target.L2Bytes, 128, 16) {
  // Stream 0 is the legacy default stream; it always exists.
  Streams.emplace_back(new Stream(*this, 0));
}

Stream *Device::createStream() {
  Streams.emplace_back(
      new Stream(*this, static_cast<unsigned>(Streams.size())));
  return Streams.back().get();
}

DevicePtr Device::allocate(uint64_t Bytes) {
  if (Bytes == 0)
    Bytes = 1;
  // Reject before rounding: rounding a request near 2^64 wraps to 0.
  if (Bytes > Memory.size())
    return 0;
  // Round to 256-byte alignment like real allocators.
  Bytes = (Bytes + 255) & ~255ull;
  // First-fit from the free list.
  for (size_t I = 0; I != FreeList.size(); ++I) {
    if (FreeList[I].second >= Bytes) {
      DevicePtr P = FreeList[I].first;
      if (FreeList[I].second > Bytes) {
        FreeList[I].first += Bytes;
        FreeList[I].second -= Bytes;
      } else {
        FreeList.erase(FreeList.begin() + static_cast<long>(I));
      }
      Allocations[P] = Bytes;
      return P;
    }
  }
  if (Brk + Bytes > Memory.size())
    return 0;
  DevicePtr P = Brk;
  Brk += Bytes;
  Allocations[P] = Bytes;
  return P;
}

FreeStatus Device::free(DevicePtr P) {
  auto It = Allocations.find(P);
  if (It == Allocations.end()) {
    // Distinguish a double free (the block is sitting on the free list)
    // from a pointer that was never an allocation start.
    for (const auto &Blk : FreeList)
      if (Blk.first == P) {
        ++DoubleFreeCount;
        return FreeStatus::DoubleFree;
      }
    ++UnknownFreeCount;
    return FreeStatus::Unknown;
  }
  FreeList.push_back({It->first, It->second});
  Allocations.erase(It);
  return FreeStatus::Ok;
}

bool Device::findAllocation(DevicePtr P, DevicePtr *Base,
                            uint64_t *Size) const {
  for (const auto &Alloc : Allocations) {
    if (P >= Alloc.first && P < Alloc.first + Alloc.second) {
      if (Base)
        *Base = Alloc.first;
      if (Size)
        *Size = Alloc.second;
      return true;
    }
  }
  return false;
}

bool Device::claimRange(DevicePtr Base, uint64_t Bytes) {
  if (Base == 0 || Bytes == 0 || !validRange(Base, Bytes))
    return false;
  for (const auto &Alloc : Allocations)
    if (Base < Alloc.first + Alloc.second && Alloc.first < Base + Bytes)
      return false;
  Allocations[Base] = Bytes;
  if (Base + Bytes > Brk)
    Brk = Base + Bytes;
  return true;
}

DevicePtr Device::registerGlobal(const std::string &Symbol, uint64_t Bytes,
                                 const std::vector<uint8_t> &Init) {
  auto It = Symbols.find(Symbol);
  if (It != Symbols.end())
    return It->second;
  DevicePtr P = allocate(Bytes);
  if (!P)
    return 0;
  if (!Init.empty() && validRange(P, Init.size()))
    std::memcpy(Memory.data() + P, Init.data(), Init.size());
  Symbols[Symbol] = P;
  return P;
}

DevicePtr Device::getSymbolAddress(const std::string &Symbol) const {
  auto It = Symbols.find(Symbol);
  return It == Symbols.end() ? 0 : It->second;
}

LoadedKernel *Device::loadKernel(const std::vector<uint8_t> &Object,
                                 std::string *Error) {
  ObjectReadResult R = readObject(Object);
  if (!R.Ok) {
    if (Error)
      *Error = R.Error;
    return nullptr;
  }
  if (R.Arch != Target.Arch) {
    if (Error)
      *Error = "object compiled for " + std::string(gpuArchName(R.Arch)) +
               " loaded on " + Target.Name;
    return nullptr;
  }
  // Patch global-variable relocations against the symbol table.
  for (const mcode::Relocation &Rel : R.MF.Relocs) {
    DevicePtr Addr = getSymbolAddress(Rel.Symbol);
    if (!Addr) {
      if (Error)
        *Error = "unresolved device global @" + Rel.Symbol;
      return nullptr;
    }
    if (Rel.Block >= R.MF.Blocks.size() ||
        Rel.InstrIndex >= R.MF.Blocks[Rel.Block].Instrs.size()) {
      if (Error)
        *Error = "relocation out of range";
      return nullptr;
    }
    R.MF.Blocks[Rel.Block].Instrs[Rel.InstrIndex].Imm =
        static_cast<int64_t>(Addr);
  }
  auto LK = std::make_unique<LoadedKernel>();
  if (!decodeKernel(R.MF, *LK, Error))
    return nullptr;
  LK->Arch = R.Arch;
  Kernels.push_back(std::move(LK));
  return Kernels.back().get();
}
