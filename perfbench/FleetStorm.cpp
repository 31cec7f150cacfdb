//===- FleetStorm.cpp - shared cache service under a client storm ---------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// One in-process fleet::CacheServer and nproc/2 (at most 4) clients, each on
// its own thread, with the persistent level behind the server
// (JitConfig::CacheRemote). The keys are the programs' own distinct jit
// launches on both arches, run as one block: the population of the cold
// phase, less the launches whose one block runs more than MaxKeyInsts
// instructions in the IR interpreter. That drops RSBENCH's lookup, whose one
// block alone simulates for 35-50 ms, ten times a compile, and would make
// the phase time the simulator rather than the cache service. A client
// holds one program instance (device and runtime) per key, so each launch
// starts from the program's initial memory, and after each phase every
// instance's memory is checked against the interpreter's one-block result
// and restored, outside the timed region.
//
// A cycle is a cold phase — the server's store is emptied and every client
// launches every key, in a seeded order, so the cache layer serves writes,
// compile claims and dedup — then a warm phase, where every runtime drops
// its in-memory state (a fresh process) and the keys are launched again,
// served by remote reads. The cold phase must compile each distinct
// specialization exactly once fleet-wide and the warm phase not at all. A
// run is a fixed number of cycles, so the loaded kernels the devices keep do
// not grow with throughput.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "fleet/CacheServer.h"
#include "fleet/RemoteBackend.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

using namespace proteus;

namespace perfbench {
namespace {

const char *const Socket = "fleet.sock";
constexpr uint64_t MaxKeyInsts = 1000000;

/// One jit launch of one program, with the state its checks need.
struct Key {
  const ProgramBuild *P = nullptr;
  size_t Launch = 0;
  uint64_t Hash = 0; ///< the specialization the launch compiles
  uint64_t Ref = 0;  ///< the interpreter's one-block memory digest
  const std::vector<uint8_t> *Snapshot = nullptr; ///< initial memory
};

struct Client {
  std::vector<ProgramInstance> Instances; ///< one per key
  // Per-phase results, written by the client's thread.
  std::vector<std::string> Errors; ///< per key, empty when the launch ran
  double WaitSeconds = 0; ///< launches served by another client's compile
};

class FleetPhase final : public Phase {
public:
  FleetPhase(ProgramSet &Set, const ReferenceStore &Refs, const RunOptions &O,
             unsigned Cycles)
      : Set(Set), Refs(Refs), O(O), Cycles(Cycles),
        Order(O.Seed ^ 0x464c454554ULL) {}
  ~FleetPhase() override {
    Clients.clear(); // disconnect before the server stops
    if (Server)
      Server->stop();
  }

  bool prepareReferences(ReferenceStore &Store, std::string &Error) override {
    return prepareOneBlockReferences(Set.Programs, Store, Error);
  }

  bool setup(std::string &Error) override {
    Keys.clear();
    Snapshots.clear();
    for (auto &P : Set.Programs)
      for (size_t Idx : distinctJitLaunches(*P))
        if (Refs.get(oneBlockKey(*P, Idx) + "/insts") <= MaxKeyInsts)
          Keys.push_back({P.get(), Idx});
    if (Keys.empty()) {
      Error = "fleet_storm: no launch is light enough to be a key";
      return false;
    }

    // Half the cores for clients and half for the server's workers: with
    // more threads than cores a descheduled claim owner stalls every
    // waiter, which made the phase's wall time swing with host load.
    unsigned Half = std::max(1u, std::min(4u, O.Threads / 2));
    fleet::CacheServerOptions SO;
    SO.SocketPath = Socket;
    SO.Dir = "fleet-store";
    SO.Workers = Half;
    Server = fleet::CacheServer::start(SO);
    if (!Server) {
      Error = "fleet_storm: cache server failed to start";
      return false;
    }
    Clients.resize(Half);
    for (size_t I = 0; I != Clients.size(); ++I) {
      Client &C = Clients[I];
      JitConfig Cfg;
      Cfg.CacheRemote = true;
      Cfg.CacheSocket = Socket;
      Cfg.CacheDir = format("fleet-client-%zu", I);
      C.Instances.resize(Keys.size());
      C.Errors.resize(Keys.size());
      for (size_t K = 0; K != Keys.size(); ++K)
        if (!instantiate(*Keys[K].P, oneBlockDeviceBytes(*Keys[K].P), Cfg,
                         C.Instances[K], Error))
          return false;
    }
    std::set<uint64_t> Distinct;
    for (size_t K = 0; K != Keys.size(); ++K) {
      Key &Ky = Keys[K];
      const ProgramInstance &I = Clients[0].Instances[K];
      const hecbench::LaunchSpec &L = Ky.P->Launches[Ky.Launch];
      Ky.Hash =
          computeSpecializationHash(specializationKey(*Ky.P, L, I.args(L)));
      Ky.Ref = Refs.get(oneBlockKey(*Ky.P, Ky.Launch));
      std::vector<uint8_t> &Snap = Snapshots[Ky.P];
      if (Snap.empty())
        Snap.assign(I.Dev->memory().begin(),
                    I.Dev->memory().begin() + highWaterMark(*I.Dev));
      Ky.Snapshot = &Snap;
      Distinct.insert(Ky.Hash);
    }
    Specializations = Distinct.size();
    return true;
  }

  bool step(double Progress, double, Report &Rep, Tracer *T) override {
    while (static_cast<double>(ColdS.size()) <
           Progress * static_cast<double>(Cycles))
      cycle(Rep, T);
    return true;
  }

  void finish(Report &Rep, Tracer *T) override {
    while (ColdS.size() < Cycles)
      cycle(Rep, T);
  }

  void report(Report &Rep, Tracer *) override {
    Rep.perLayer("fleet.storm_s", median(ColdS), "s");
    Rep.perLayer("fleet.warm_start_s", median(WarmS), "s");
    Rep.row(format("{\"phase\": \"fleet_storm\", \"clients\": %zu, "
                   "\"keys\": %zu, \"specializations\": %zu, \"cycles\": %zu, "
                   "\"cold_p10_s\": %.6f, \"cold_p50_s\": %.6f, "
                   "\"warm_p10_s\": %.6f, \"warm_p50_s\": %.6f}",
                   Clients.size(), Keys.size(), Specializations, ColdS.size(),
                   percentile(ColdS, 10), median(ColdS), percentile(WarmS, 10),
                   median(WarmS)));
    uint64_t Batched = 0;
    for (Client &C : Clients)
      for (ProgramInstance &I : C.Instances)
        if (auto *RB = dynamic_cast<fleet::RemoteCacheBackend *>(
                I.Jit->cache().backend()))
          Batched += RB->stats().BatchedLookups;
    Rep.perLayer("fleet.remote_hit_us", median(RemoteHitUs), "us");
    Rep.perLayer("fleet.publish_us", median(PublishUs), "us");
    Rep.perLayer("fleet.claim_wait_s", median(ClaimWaitS), "s");
    Rep.perLayer("fleet.compiles", median(CycleCompiles), "count");
    Rep.perLayer("fleet.batched_lookups", static_cast<double>(Batched),
                 "count");
  }

private:
  uint64_t compiles() const {
    uint64_t N = 0;
    for (const Client &C : Clients)
      for (const ProgramInstance &I : C.Instances) {
        JitRuntimeStats S = I.Jit->stats();
        N += S.Compilations + S.Tier0Compiles;
      }
    return N;
  }

  void cycle(Report &Rep, Tracer *T) {
    std::vector<size_t> Perm(Keys.size());
    std::iota(Perm.begin(), Perm.end(), size_t{0});
    Order.shuffle(Perm);
    Server->backend().clear();
    ColdS.push_back(phase(Rep, T, Perm, /*Cold=*/true));
    WarmS.push_back(phase(Rep, T, Perm, /*Cold=*/false));
    if (T)
      probe(ColdS.size());
  }

  /// One cold or warm phase: every client launches every key once, all in
  /// the order \p Perm, as identical processes started together would.
  /// Returns the phase's wall seconds.
  double phase(Report &Rep, Tracer *T, const std::vector<size_t> &Perm,
               bool Cold) {
    uint64_t Cycle = ColdS.size();
    for (Client &C : Clients) {
      for (ProgramInstance &I : C.Instances)
        I.Jit->resetInMemoryState();
      C.WaitSeconds = 0;
    }
    uint64_t Compiles0 = compiles();
    std::atomic<bool> Go{false};
    std::atomic<unsigned> Ready{0};
    std::vector<std::thread> Workers;
    for (size_t I = 0; I != Clients.size(); ++I)
      Workers.emplace_back([&, I] {
        Client &C = Clients[I];
        ++Ready;
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        ScopedSpan Root(T, Cold ? "fleet.cold_client" : "fleet.warm_client",
                        Cycle);
        for (size_t J = 0; J != Perm.size(); ++J) {
          size_t K = Perm[J];
          ProgramInstance &Inst = C.Instances[K];
          const hecbench::LaunchSpec &L = Keys[K].P->Launches[Keys[K].Launch];
          uint64_t Served0 = T ? Inst.Jit->stats().FleetServedCompiles : 0;
          std::string Err;
          Clock::time_point L0 = Clock::now();
          gpu::GpuError E;
          {
            ScopedSpan Sp(T, "jit.launch", Cycle);
            E = Inst.Jit->launchKernel(L.Symbol, gpu::Dim3{1, 1, 1}, L.Block,
                                       Inst.args(L), &Err);
          }
          if (T && Inst.Jit->stats().FleetServedCompiles != Served0)
            C.WaitSeconds += secondsSince(L0);
          C.Errors[K] = E == gpu::GpuError::Success
                            ? std::string()
                            : "launch failed: " + (Err.empty() ? "?" : Err);
        }
      });
    while (Ready.load() != Clients.size())
      std::this_thread::yield();
    Clock::time_point W0 = Clock::now();
    Go.store(true, std::memory_order_release);
    for (std::thread &W : Workers)
      W.join();
    double Wall = secondsSince(W0);

    // Check every launch's memory against the interpreter, then restore the
    // program's initial memory for the next phase.
    double Wait = 0;
    for (Client &C : Clients) {
      Wait += C.WaitSeconds;
      for (size_t K = 0; K != Keys.size(); ++K) {
        const Key &Ky = Keys[K];
        uint8_t *Mem = C.Instances[K].Dev->memory().data();
        size_t Bytes = Ky.Snapshot->size();
        bool Ok = C.Errors[K].empty() && digest(Mem, Bytes) == Ky.Ref;
        Rep.operation("fleet.launch", Ok,
                      Ky.P->Name + " @" + Ky.P->Launches[Ky.Launch].Symbol +
                          ": " +
                          (C.Errors[K].empty()
                               ? "output differs from the interpreter"
                               : C.Errors[K]));
        std::memcpy(Mem, Ky.Snapshot->data(), Bytes);
      }
    }
    uint64_t Compiles = compiles() - Compiles0;
    uint64_t Expected = Cold ? Specializations : 0;
    Rep.operation("fleet.compiles", Compiles == Expected,
                  format("%s phase compiled %llu times for %llu "
                         "specializations",
                         Cold ? "cold" : "warm",
                         static_cast<unsigned long long>(Compiles),
                         static_cast<unsigned long long>(Expected)));
    if (Cold) {
      CycleCompiles.push_back(static_cast<double>(Compiles));
      ClaimWaitS.push_back(Wait);
    }
    return Wall;
  }

  /// Latency of a remote hit and of a publish through one client's caches.
  void probe(uint64_t Cycle) {
    Client &C = Clients[Cycle % Clients.size()];
    for (size_t K = 0; K != Keys.size(); ++K) {
      CodeCache &Cache = C.Instances[K].Jit->cache();
      Cache.clearMemory();
      Clock::time_point L0 = Clock::now();
      std::optional<CachedCode> Hit = Cache.lookupEntry(Keys[K].Hash);
      double Us = secondsSince(L0) * 1e6;
      if (!Hit)
        continue;
      RemoteHitUs.push_back(Us);
      Clock::time_point P0 = Clock::now();
      Cache.insert(Keys[K].Hash ^ 0x5a5a5a5a5a5a5a5aULL, Hit->Object,
                   CodeTier::Final, Hit->PipelineFingerprint);
      PublishUs.push_back(secondsSince(P0) * 1e6);
    }
  }

  ProgramSet &Set;
  const ReferenceStore &Refs;
  RunOptions O;
  unsigned Cycles;
  Rng Order; ///< the launch order of each cycle
  std::vector<Key> Keys;
  std::map<const ProgramBuild *, std::vector<uint8_t>> Snapshots;
  size_t Specializations = 0;
  std::unique_ptr<fleet::CacheServer> Server;
  std::vector<Client> Clients;
  std::vector<double> ColdS, WarmS, RemoteHitUs, PublishUs, ClaimWaitS,
      CycleCompiles;
};

} // namespace

std::unique_ptr<Phase> makeFleetPhase(ProgramSet &Set,
                                      const ReferenceStore &Refs,
                                      const RunOptions &O, unsigned Cycles) {
  return std::make_unique<FleetPhase>(Set, Refs, O, Cycles);
}

} // namespace perfbench
