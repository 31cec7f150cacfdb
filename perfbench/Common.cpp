//===- Common.cpp - shared pieces of the JIT performance benchmark --------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ir/Cloning.h"
#include "ir/Interpreter.h"
#include "jit/AotCompiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

using namespace proteus;

namespace perfbench {

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / static_cast<double>(V.size());
}

// --- Seeded randomness --------------------------------------------------------

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

// --- Digests -------------------------------------------------------------------

uint64_t digest(const uint8_t *Data, size_t Size, uint64_t H) {
  H ^= 0x243f6a8885a308d3ULL ^ Size;
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W;
    std::memcpy(&W, Data + I, 8);
    H = (H ^ W) * 0x100000001b3ULL;
    H ^= H >> 29;
  }
  for (; I < Size; ++I)
    H = (H ^ Data[I]) * 0x100000001b3ULL;
  return H ^ (H >> 32);
}

uint64_t bufferDigest(gpu::Device &Dev,
                      const std::map<std::string, gpu::DevicePtr> &Ptrs,
                      const std::map<std::string, uint64_t> &Sizes) {
  uint64_t H = 0;
  for (const auto &[Name, P] : Ptrs)
    H = digest(Dev.memory().data() + P, Sizes.at(Name), H);
  return H;
}

// --- Tracing --------------------------------------------------------------------

namespace {
std::atomic<uint64_t> NextTracerId{1};

struct LocalBuffer {
  uint64_t TracerId = 0;
  void *B = nullptr;
};
thread_local LocalBuffer ThreadBuffer;
} // namespace

Tracer::Tracer() : Epoch(Clock::now()), Id(NextTracerId.fetch_add(1)) {}
Tracer::~Tracer() = default;

Tracer::Buffer &Tracer::local() {
  if (ThreadBuffer.TracerId != Id) {
    auto B = std::make_unique<Buffer>();
    B->Spans.reserve(1 << 12);
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::move(B));
    ThreadBuffer.TracerId = Id;
    ThreadBuffer.B = Buffers.back().get();
  }
  return *static_cast<Buffer *>(ThreadBuffer.B);
}

int32_t Tracer::begin(const char *Name, uint64_t Request) {
  Buffer &B = local();
  int32_t Parent = B.Open.empty() ? -1 : B.Open.back();
  B.Spans.push_back(
      Span{Name, secondsSince(Epoch), 0.0, Parent, Request});
  int32_t Handle = static_cast<int32_t>(B.Spans.size() - 1);
  B.Open.push_back(Handle);
  return Handle;
}

void Tracer::end(int32_t Handle) {
  Buffer &B = local();
  B.Spans[Handle].End = secondsSince(Epoch);
  if (!B.Open.empty() && B.Open.back() == Handle)
    B.Open.pop_back();
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::map<std::string, Summary> Out;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &B : Buffers) {
    std::vector<double> ChildTime(B->Spans.size(), 0.0);
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      if (S.Parent >= 0)
        ChildTime[S.Parent] += S.End - S.Start;
    }
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      Summary &Sum = Out[S.Name];
      ++Sum.Count;
      Sum.Durations.push_back(S.End - S.Start);
      Sum.Self.push_back(S.End - S.Start - ChildTime[I]);
    }
  }
  return Out;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t N = 0;
  for (const auto &B : Buffers)
    N += B->Spans.size();
  return N;
}

// --- Results -------------------------------------------------------------------

std::string format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Small[512];
  va_list Copy;
  va_copy(Copy, Args);
  int N = std::vsnprintf(Small, sizeof(Small), Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (N >= 0 && static_cast<size_t>(N) < sizeof(Small)) {
    Out.assign(Small, static_cast<size_t>(N));
  } else if (N >= 0) {
    Out.resize(static_cast<size_t>(N) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args);
    Out.resize(static_cast<size_t>(N));
  }
  va_end(Args);
  return Out;
}

void Report::endToEnd(const std::string &Name, double Value,
                      const char *Unit) {
  EndToEnd[Name] = Metric{Value, Unit};
}

void Report::hostTime(const std::string &Name, double Value,
                      const char *Unit) {
  EndToEnd[Name] = Metric{Value, Unit, true};
}

void Report::normalize(const HostProbe &P) {
  std::map<std::string, Metric> Raw;
  for (auto &[Name, M] : EndToEnd)
    if (M.HostTime) {
      Raw[Name] = M;
      M.Value *= P.scale();
    }
  row(format("{\"host_probe\": {\"samples\": %zu, \"p10_ms\": %.5f, "
             "\"reference_ms\": %.5f, \"scale\": %.5f}, \"raw_end_to_end\": %s}",
             P.samples(), P.seconds() * 1e3, HostProbe::ReferenceSeconds * 1e3,
             P.scale(), metricsJson(Raw).c_str()));
}

void Report::perLayer(const std::string &Name, double Value,
                      const char *Unit) {
  PerLayer[Name] = Metric{Value, Unit};
}

void Report::operation(const char *Check, bool Ok, const std::string &What) {
  Tally &C = Checks[Check];
  ++C.Attempted;
  ++Attempted;
  if (Ok)
    return;
  if (Failed < 10)
    std::fprintf(stderr, "perfbench: FAILED: %s: %s\n", Check, What.c_str());
  ++C.Failed;
  ++Failed;
}

void Report::operations(const char *Check, uint64_t N) {
  Checks[Check].Attempted += N;
  Attempted += N;
}

double Report::okRatio() const {
  double Lowest = 1;
  for (const auto &[Name, C] : Checks)
    if (C.Attempted)
      Lowest = std::min(Lowest, static_cast<double>(C.Attempted - C.Failed) /
                                    static_cast<double>(C.Attempted));
  return Lowest;
}

std::string Report::metricsJson(const std::map<std::string, Metric> &M) {
  std::string Out = "{";
  for (const auto &[Name, Mt] : M) {
    if (Out.size() > 1)
      Out += ", ";
    double V = std::isfinite(Mt.Value) ? Mt.Value : 0.0;
    Out += format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Name.c_str(),
                  V, Mt.Unit.c_str());
  }
  return Out + "}";
}

void Report::print(bool Trace) const {
  for (const std::string &R : Rows)
    std::printf("#row %s\n", R.c_str());
  std::string C;
  for (const auto &[Name, T] : Checks)
    C += format("%s\"%s\": [%llu, %llu]", C.empty() ? "" : ", ", Name.c_str(),
                static_cast<unsigned long long>(T.Attempted),
                static_cast<unsigned long long>(T.Failed));
  std::printf("#row {\"checks_attempted_failed\": {%s}}\n", C.c_str());
  std::printf("#e2e %s\n", metricsJson(EndToEnd).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Trace ? PerLayer : EndToEnd).c_str());
  std::fflush(stdout);
}

// --- Host speed ----------------------------------------------------------------

namespace {
constexpr size_t ProbeWords = 1 << 15;
} // namespace

HostProbe::HostProbe() : Words(ProbeWords), Table(2 * ProbeWords) {}

void HostProbe::sample() {
  Clock::time_point T0 = Clock::now();
  Rng R(1);
  for (uint64_t &W : Words)
    W = R.next() | 1;
  std::sort(Words.begin(), Words.end());
  std::fill(Table.begin(), Table.end(), 0);
  const size_t Mask = Table.size() - 1;
  for (uint64_t W : Words) {
    size_t I = (W * 0x9e3779b97f4a7c15ULL) >> 40 & Mask;
    while (Table[I] != 0 && Table[I] != W)
      I = (I + 1) & Mask;
    Table[I] = W;
  }
  for (size_t I = 0; I < Table.size(); I += 64)
    Sink += Table[I];
  Samples.push_back(secondsSince(T0));
}

// --- Shared program builds -----------------------------------------------------

const char *archName(GpuArch A) {
  return A == GpuArch::AmdGcnSim ? "amdgcn-sim" : "nvptx-sim";
}

std::unique_ptr<ProgramBuild> buildProgram(const hecbench::Benchmark &B,
                                           GpuArch Arch) {
  auto P = std::make_unique<ProgramBuild>();
  P->B = &B;
  P->Arch = Arch;
  P->Name = B.name() + "/" + archName(Arch);
  P->M = B.buildModule(P->Ctx);
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  P->Prog = aotCompile(*P->M, AO);
  P->Buffers = B.buffers();
  P->Launches = B.launches();
  return P;
}

std::vector<gpu::KernelArg>
ProgramInstance::args(const hecbench::LaunchSpec &L) const {
  std::vector<gpu::KernelArg> Out;
  for (const hecbench::ArgSpec &A : L.Args)
    Out.push_back(gpu::KernelArg{A.K == hecbench::ArgSpec::Kind::Scalar
                                     ? A.Bits
                                     : Ptrs.at(A.BufferName) + A.ByteOffset});
  return Out;
}

bool instantiate(const ProgramBuild &P, uint64_t MemoryBytes,
                 const JitConfig &Config, ProgramInstance &Out,
                 std::string &Error) {
  Out.Dev = std::make_unique<gpu::Device>(getTarget(P.Arch), MemoryBytes);
  Out.Jit = std::make_unique<JitRuntime>(*Out.Dev, P.Prog.ModuleId, Config);
  Out.LP = std::make_unique<LoadedProgram>(*Out.Dev, P.Prog, Out.Jit.get());
  if (!Out.LP->ok()) {
    Error = P.Name + ": program load failed: " + Out.LP->error();
    return false;
  }
  for (const hecbench::BufferSpec &BS : P.Buffers) {
    gpu::DevicePtr Ptr = 0;
    if (gpu::gpuMalloc(*Out.Dev, &Ptr, BS.Init.size()) !=
        gpu::GpuError::Success) {
      Error = P.Name + ": device out of memory for buffer " + BS.Name;
      return false;
    }
    gpu::gpuMemcpyHtoD(*Out.Dev, Ptr, BS.Init.data(), BS.Init.size());
    Out.Ptrs[BS.Name] = Ptr;
    Out.Sizes[BS.Name] = BS.Init.size();
  }
  return true;
}

std::vector<size_t> distinctJitLaunches(const ProgramBuild &P) {
  std::vector<size_t> Out;
  std::vector<std::string> Seen;
  for (size_t I = 0; I != P.Launches.size(); ++I) {
    const hecbench::LaunchSpec &L = P.Launches[I];
    if (!P.Prog.JitKernels.count(L.Symbol))
      continue;
    std::string Id = format("%s:%u:%u", L.Symbol.c_str(), L.Block.X, L.Block.Y);
    for (const hecbench::ArgSpec &A : L.Args)
      Id += format(":%llu:%s:%llu", static_cast<unsigned long long>(A.Bits),
                   A.BufferName.c_str(),
                   static_cast<unsigned long long>(A.ByteOffset));
    if (std::find(Seen.begin(), Seen.end(), Id) != Seen.end())
      continue;
    Seen.push_back(Id);
    Out.push_back(I);
  }
  return Out;
}

uint64_t oneBlockDeviceBytes(const ProgramBuild &P) {
  uint64_t Bytes = 2ull << 20;
  for (const hecbench::BufferSpec &BS : P.Buffers)
    Bytes += BS.Init.size();
  return (Bytes + (1ull << 20) - 1) & ~((1ull << 20) - 1);
}

uint64_t highWaterMark(const gpu::Device &Dev) {
  uint64_t Hwm = 0;
  for (const auto &[Base, Size] : Dev.liveAllocations())
    Hwm = std::max(Hwm, Base + Size);
  return Hwm;
}

hecbench::LaunchSpec oneBlock(const hecbench::LaunchSpec &L) {
  hecbench::LaunchSpec Out = L;
  Out.Grid = gpu::Dim3{1, 1, 1};
  return Out;
}

std::string oneBlockKey(const ProgramBuild &P, size_t Launch) {
  return format("cold/%s/%zu", P.Name.c_str(), Launch);
}

SpecializationKey specializationKey(const ProgramBuild &P,
                                    const hecbench::LaunchSpec &L,
                                    const std::vector<gpu::KernelArg> &Args) {
  SpecializationKey Key;
  Key.ModuleId = P.Prog.ModuleId;
  Key.KernelSymbol = L.Symbol;
  Key.Arch = P.Arch;
  for (uint32_t OneBased : P.Prog.JitArgIndices.at(L.Symbol))
    Key.FoldedArgs.push_back(
        RuntimeArgValue{OneBased - 1, Args[OneBased - 1].Bits});
  Key.LaunchBoundsThreads = static_cast<uint32_t>(L.Block.count());
  return Key;
}

bool interpretLaunches(const ProgramBuild &P, gpu::Device &Dev,
                       const std::vector<hecbench::LaunchSpec> &Ls,
                       const std::map<std::string, gpu::DevicePtr> &Ptrs,
                       uint32_t MaxBlocks, std::vector<uint8_t> &Memory,
                       std::string &Error, uint64_t *DynamicInsts) {
  pir::Module &Src = *P.M;
  pir::Context &Ctx = Src.getContext();
  // Link globals at their device addresses in a clone, as the harness's own
  // interpreter check does.
  auto Linked = pir::cloneModule(Src, Ctx, Src.getName() + ".ref");
  for (const auto &G : Linked->globals()) {
    gpu::DevicePtr Addr = Dev.getSymbolAddress(G->getName());
    if (!Addr) {
      Error = P.Name + ": unresolved global @" + G->getName();
      return false;
    }
    G->replaceAllUsesWith(Ctx.getConstantPtr(Addr));
  }
  pir::IRInterpreter Interp(Memory);
  for (const hecbench::LaunchSpec &L : Ls) {
    pir::Function *F = Linked->getFunction(L.Symbol);
    if (!F) {
      Error = P.Name + ": unknown kernel @" + L.Symbol;
      return false;
    }
    std::vector<uint64_t> Args;
    for (const hecbench::ArgSpec &A : L.Args)
      Args.push_back(A.K == hecbench::ArgSpec::Kind::Scalar
                         ? A.Bits
                         : Ptrs.at(A.BufferName) + A.ByteOffset);
    uint32_t Blocks = MaxBlocks ? std::min(MaxBlocks, L.Grid.X) : L.Grid.X;
    for (uint32_t Blk = 0; Blk != Blocks; ++Blk)
      for (uint32_t Ty = 0; Ty != L.Block.Y; ++Ty)
        for (uint32_t Tx = 0; Tx != L.Block.X; ++Tx) {
          pir::ThreadGeometry G;
          G.ThreadIdx[0] = Tx;
          G.ThreadIdx[1] = Ty;
          G.BlockIdx[0] = Blk;
          G.BlockDim[0] = L.Block.X;
          G.BlockDim[1] = L.Block.Y;
          G.GridDim[0] = Blocks;
          pir::InterpResult R = Interp.run(*F, Args, G);
          if (!R.Ok) {
            Error = P.Name + ": interpreter failed in @" + L.Symbol + ": " +
                    R.Error;
            return false;
          }
          if (DynamicInsts)
            *DynamicInsts += R.DynamicInstructions;
        }
  }
  return true;
}

// --- Reference store -----------------------------------------------------------

namespace {
uint64_t selfDigest() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  return digest(reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size());
}
} // namespace

ReferenceStore::ReferenceStore(const std::string &StateDir) {
  Path = StateDir + format("/references-%016llx.txt",
                           static_cast<unsigned long long>(selfDigest()));
  std::ifstream In(Path);
  std::string Key;
  unsigned long long V;
  while (In >> Key >> std::hex >> V >> std::dec)
    Values[Key] = V;
}

uint64_t ReferenceStore::get(const std::string &Key) const {
  auto It = Values.find(Key);
  return It == Values.end() ? 0 : It->second;
}

bool ReferenceStore::save() const {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    for (const auto &[Key, V] : Values)
      Out << Key << ' ' << std::hex << V << std::dec << '\n';
    if (!Out)
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

bool prepareOneBlockReferences(
    const std::vector<std::unique_ptr<ProgramBuild>> &Programs,
    ReferenceStore &Refs, std::string &Error) {
  JitConfig Cfg;
  Cfg.UsePersistentCache = false;
  for (const auto &P : Programs) {
    std::vector<size_t> Launches = distinctJitLaunches(*P);
    if (Launches.empty() || Refs.has(oneBlockKey(*P, Launches.front())))
      continue;
    ProgramInstance I;
    if (!instantiate(*P, oneBlockDeviceBytes(*P), Cfg, I, Error))
      return false;
    uint64_t Hwm = highWaterMark(*I.Dev);
    for (size_t Idx : Launches) {
      std::vector<uint8_t> Mem = I.Dev->memory();
      uint64_t Insts = 0;
      if (!interpretLaunches(*P, *I.Dev, {oneBlock(P->Launches[Idx])}, I.Ptrs,
                             1, Mem, Error, &Insts))
        return false;
      Refs.set(oneBlockKey(*P, Idx), digest(Mem.data(), Hwm));
      Refs.set(oneBlockKey(*P, Idx) + "/insts", Insts);
    }
  }
  return true;
}

long minorFaults() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_minflt;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

} // namespace perfbench
