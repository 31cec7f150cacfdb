//===- fleet_throughput.cpp - fleet-scale shared-cache benchmark ----------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Fleet-scale JIT cache throughput: forks one proteus-cached daemon plus K
// client processes sharing it over the unix-socket protocol, and gates the
// three properties the shared service exists to provide:
//
//   1. Cold K-process storm: every client races the same set of unique
//      specializations; the fleet-wide compile claims must collapse the
//      storm to EXACTLY one compile per unique specialization — everyone
//      else is served the published object.
//   2. Warm fleet: K fresh processes against the warm service perform zero
//      compiles — every lookup is a hit.
//   3. Remote-hit latency: the median daemon-served lookup costs at most
//      5x the median local disk-served lookup (batched round-trips keep
//      the socket hop from dominating). The two are sampled interleaved,
//      so host load skews neither side alone.
//
// Emits the self-validated BENCH_fleet.json and exits nonzero when any
// gate fails; --smoke runs the same gates on a reduced configuration.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "fleet/Protocol.h"
#include "fleet/RemoteBackend.h"
#include "jit/CodeCache.h"
#include "support/FileSystem.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace proteus;
using Clock = std::chrono::steady_clock;

namespace {

struct Config {
  unsigned Clients = 6;
  unsigned Keys = 32;
  size_t PayloadBytes = 256 * 1024;
  unsigned LatencyIters = 400;
  unsigned LatencyThreads = 4;
};

/// What each forked client reports back over its pipe.
struct ClientReport {
  uint64_t Compiles = 0; ///< specializations this client compiled itself
  uint64_t Hits = 0;     ///< served straight from the cache
  uint64_t Served = 0;   ///< waited on another process's in-flight compile
  uint64_t Errors = 0;   ///< payload mismatches / unexpected misses
};

uint64_t keyFor(unsigned I) {
  // Spread keys across the 64-bit space like real specialization hashes do.
  uint64_t X = (I + 1) * 0x9e3779b97f4a7c15ULL;
  X ^= X >> 29;
  return X;
}

/// Deterministic per-key object bytes: every process can both generate and
/// verify them, so a cross-process corruption can never go unnoticed.
std::vector<uint8_t> payloadFor(uint64_t Key, size_t Bytes) {
  std::vector<uint8_t> Out(Bytes);
  uint64_t X = Key ^ 0x5bf0363502a1c3f7ULL;
  for (size_t I = 0; I != Bytes; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Out[I] = static_cast<uint8_t>(X >> 33);
  }
  return Out;
}

std::unique_ptr<CodeCache> makeRemoteCache(const std::string &Socket,
                                           const std::string &Dir) {
  CacheLimits Limits;
  fleet::RemoteBackendOptions RO;
  RO.SocketPath = Socket;
  RO.FallbackDir = Dir;
  RO.Fallback = CodeCache::backendOptions(Limits);
  // Memory level off: every lookup must cross the wire, which is the path
  // under test.
  return std::make_unique<CodeCache>(
      false, true, Dir, Limits,
      std::make_unique<fleet::RemoteCacheBackend>(std::move(RO)));
}

/// Forks and execs the proteus-cached daemon, then waits until it answers a
/// Ping. Returns the daemon pid, or -1.
pid_t spawnDaemon(const std::string &Socket, const std::string &Dir) {
  std::string SockArg = "--socket=" + Socket;
  std::string DirArg = "--dir=" + Dir;
  pid_t Pid = fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    execl(PROTEUS_CACHED_BIN, PROTEUS_CACHED_BIN, SockArg.c_str(),
          DirArg.c_str(), "--workers=4",
          static_cast<char *>(nullptr));
    _exit(127);
  }
  for (int Try = 0; Try != 100; ++Try) {
    int Fd = fleet::net::connectUnix(Socket, 200);
    if (Fd >= 0) {
      fleet::wire::Request Ping;
      Ping.Kind = fleet::wire::Op::Ping;
      bool Up = fleet::net::writeFrame(Fd, fleet::wire::encodeRequest(Ping)) &&
                fleet::net::readFrame(Fd).has_value();
      fleet::net::closeFd(Fd);
      if (Up)
        return Pid;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  kill(Pid, SIGKILL);
  waitpid(Pid, nullptr, 0);
  return -1;
}

void stopDaemon(pid_t Pid) {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  int Status = 0;
  waitpid(Pid, &Status, 0);
}

/// Forks \p K client processes running \p Body and collects their reports.
/// The parent must be single-threaded when this is called.
template <typename Fn>
std::vector<ClientReport> runFleet(unsigned K, Fn Body) {
  std::vector<ClientReport> Reports(K);
  std::vector<int> ReadFds(K, -1);
  std::vector<pid_t> Pids(K, -1);
  for (unsigned I = 0; I != K; ++I) {
    int P[2];
    if (pipe(P) != 0) {
      std::fprintf(stderr, "FATAL: pipe failed\n");
      std::exit(1);
    }
    pid_t Pid = fork();
    if (Pid < 0) {
      std::fprintf(stderr, "FATAL: fork failed\n");
      std::exit(1);
    }
    if (Pid == 0) {
      close(P[0]);
      ClientReport R = Body(I);
      ssize_t W = write(P[1], &R, sizeof(R));
      _exit(W == static_cast<ssize_t>(sizeof(R)) && R.Errors == 0 ? 0 : 1);
    }
    close(P[1]);
    ReadFds[I] = P[0];
    Pids[I] = Pid;
  }
  for (unsigned I = 0; I != K; ++I) {
    ClientReport R;
    ssize_t N = read(ReadFds[I], &R, sizeof(R));
    close(ReadFds[I]);
    if (N == static_cast<ssize_t>(sizeof(R)))
      Reports[I] = R;
    else
      Reports[I].Errors = 1; // client died before reporting
    int Status = 0;
    waitpid(Pids[I], &Status, 0);
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      Reports[I].Errors = std::max<uint64_t>(Reports[I].Errors, 1);
  }
  return Reports;
}

/// One cold-storm client: race every key through the claim protocol,
/// simulating the compiler with the deterministic payload generator.
ClientReport stormClient(unsigned Idx, const std::string &Socket,
                         const std::string &Dir, const Config &C) {
  auto Cache = makeRemoteCache(Socket, Dir);
  ClientReport R;
  for (unsigned J = 0; J != C.Keys; ++J) {
    // Rotate the visit order per client so every key sees real contention.
    unsigned I = (J + Idx * 7) % C.Keys;
    uint64_t Hash = keyFor(I);
    std::vector<uint8_t> Expected = payloadFor(Hash, C.PayloadBytes);
    auto Check = [&](const std::vector<uint8_t> &Got) {
      if (Got != Expected)
        ++R.Errors;
    };
    if (auto E = Cache->lookupEntry(Hash)) {
      Check(E->Object);
      ++R.Hits;
      continue;
    }
    auto CompileAndPublish = [&] {
      // Hold the claim long enough that the other K-1 clients pile up on
      // this key; fleet dedup must still yield exactly one compile.
      auto Until = Clock::now() + std::chrono::microseconds(300);
      while (Clock::now() < Until) {
      }
      Cache->insert(Hash, Expected);
      Cache->endCompile(Hash);
      ++R.Compiles;
    };
    if (Cache->beginCompile(Hash) == fleet::CompileClaim::Owner) {
      // Double-checked claim: another client may have published between the
      // miss above and the claim — the gate demands the re-check, or the
      // fleet compiles a key twice.
      if (auto E = Cache->lookupEntry(Hash)) {
        Cache->endCompile(Hash);
        Check(E->Object);
        ++R.Served;
      } else {
        CompileAndPublish();
      }
    } else if (auto E = Cache->waitRemoteCompile(Hash)) {
      Check(E->Object);
      ++R.Served;
    } else {
      CompileAndPublish(); // inherited the claim from a dead owner
    }
  }
  return R;
}

/// One warm client: every key must already be served by the fleet.
ClientReport warmClient(const std::string &Socket, const std::string &Dir,
                        const Config &C) {
  auto Cache = makeRemoteCache(Socket, Dir);
  ClientReport R;
  for (unsigned I = 0; I != C.Keys; ++I) {
    auto E = Cache->lookupEntry(keyFor(I));
    if (E && E->Object == payloadFor(keyFor(I), C.PayloadBytes))
      ++R.Hits;
    else
      ++R.Errors;
  }
  return R;
}

double medianUs(std::vector<double> &SamplesUs) {
  if (SamplesUs.empty())
    return 0;
  size_t Mid = SamplesUs.size() / 2;
  std::nth_element(SamplesUs.begin(), SamplesUs.begin() + Mid,
                   SamplesUs.end());
  return SamplesUs[Mid];
}

struct LookupMeasurement {
  double MedianUs = 0;    ///< median per-call latency
  double AmortizedUs = 0; ///< wall / lookups (what batching amortizes)
  uint64_t Misses = 0;
};

/// Latency of \p C.LatencyIters lookups against \p Backend from \p Threads
/// concurrent callers (1 = sequential; >1 engages the remote backend's
/// group-commit batching).
LookupMeasurement measureLookups(fleet::CacheBackend &Backend,
                                 const Config &C, unsigned Threads) {
  std::mutex M;
  std::vector<double> All;
  std::atomic<uint64_t> Misses{0};
  unsigned PerThread = std::max(1u, C.LatencyIters / Threads);
  auto Body = [&](unsigned T) {
    std::vector<double> Mine;
    Mine.reserve(PerThread);
    for (unsigned I = 0; I != PerThread; ++I) {
      uint64_t Key = keyFor((I * Threads + T) % C.Keys);
      auto T0 = Clock::now();
      auto B = Backend.lookup(fleet::BlobKind::Code, Key);
      auto T1 = Clock::now();
      if (!B)
        Misses.fetch_add(1);
      Mine.push_back(
          std::chrono::duration<double, std::micro>(T1 - T0).count());
    }
    std::lock_guard<std::mutex> Lock(M);
    All.insert(All.end(), Mine.begin(), Mine.end());
  };
  auto Wall0 = Clock::now();
  if (Threads <= 1) {
    Body(0);
  } else {
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T != Threads; ++T)
      Ts.emplace_back(Body, T);
    for (auto &T : Ts)
      T.join();
  }
  LookupMeasurement Out;
  Out.AmortizedUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Wall0)
          .count() /
      static_cast<double>(All.size());
  Out.MedianUs = medianUs(All);
  Out.Misses = Misses.load();
  return Out;
}

/// Sequential per-call latency of \p C.LatencyIters lookups on each of
/// \p A and \p B, interleaved call by call with the order alternating, so a
/// host load spike during the measurement lands on both sides alike.
std::pair<LookupMeasurement, LookupMeasurement>
interleavedLookups(fleet::CacheBackend &A, fleet::CacheBackend &B,
                   const Config &C) {
  fleet::CacheBackend *Backends[2] = {&A, &B};
  std::vector<double> Samples[2];
  uint64_t Misses[2] = {0, 0};
  for (unsigned I = 0; I != C.LatencyIters; ++I) {
    uint64_t Key = keyFor(I % C.Keys);
    for (unsigned Turn = 0; Turn != 2; ++Turn) {
      unsigned Side = (I + Turn) % 2;
      auto T0 = Clock::now();
      auto Blob = Backends[Side]->lookup(fleet::BlobKind::Code, Key);
      auto T1 = Clock::now();
      if (!Blob)
        ++Misses[Side];
      Samples[Side].push_back(
          std::chrono::duration<double, std::micro>(T1 - T0).count());
    }
  }
  std::pair<LookupMeasurement, LookupMeasurement> Out;
  Out.first.MedianUs = medianUs(Samples[0]);
  Out.first.Misses = Misses[0];
  Out.second.MedianUs = medianUs(Samples[1]);
  Out.second.Misses = Misses[1];
  return Out;
}

uint64_t sumOf(const std::vector<ClientReport> &Rs,
               uint64_t ClientReport::*Field) {
  uint64_t Total = 0;
  for (const ClientReport &R : Rs)
    Total += R.*Field;
  return Total;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = Argc > 1 && std::string(Argv[1]) == "--smoke";
  Config C;
  if (Smoke) {
    C.Clients = 3;
    C.Keys = 8;
    C.PayloadBytes = 64 * 1024;
    C.LatencyIters = 120;
  }

  std::string Root = fs::makeTempDirectory("proteus-fleet-bench");
  std::string FleetDir = Root + "/fleet";
  std::string LocalDir = Root + "/local";
  std::string Socket = Root + "/cached.sock";
  fs::createDirectories(FleetDir);
  fs::createDirectories(LocalDir);

  pid_t Daemon = spawnDaemon(Socket, FleetDir);
  if (Daemon < 0) {
    std::fprintf(stderr, "FATAL: proteus-cached did not come up on %s\n",
                 Socket.c_str());
    return 1;
  }

  // --- Gate 1: cold K-process storm -------------------------------------
  auto ColdT0 = Clock::now();
  std::vector<ClientReport> Cold = runFleet(
      C.Clients, [&](unsigned I) { return stormClient(I, Socket, FleetDir, C); });
  double ColdSeconds =
      std::chrono::duration<double>(Clock::now() - ColdT0).count();
  uint64_t ColdCompiles = sumOf(Cold, &ClientReport::Compiles);
  uint64_t ColdServed = sumOf(Cold, &ClientReport::Served);
  uint64_t ColdHits = sumOf(Cold, &ClientReport::Hits);
  uint64_t ColdErrors = sumOf(Cold, &ClientReport::Errors);

  // --- Gate 2: warm fleet ------------------------------------------------
  auto WarmT0 = Clock::now();
  std::vector<ClientReport> Warm = runFleet(
      C.Clients, [&](unsigned) { return warmClient(Socket, FleetDir, C); });
  double WarmSeconds =
      std::chrono::duration<double>(Clock::now() - WarmT0).count();
  uint64_t WarmHits = sumOf(Warm, &ClientReport::Hits);
  uint64_t WarmCompiles = sumOf(Warm, &ClientReport::Compiles);
  uint64_t WarmErrors = sumOf(Warm, &ClientReport::Errors);

  // --- Gate 3: remote-hit vs local disk-hit latency ----------------------
  // Local baseline: the same framed entries served by a process-local
  // directory backend (the pre-fleet fast path).
  fleet::LocalDirBackend Local(LocalDir,
                               CodeCache::backendOptions(CacheLimits()));
  for (unsigned I = 0; I != C.Keys; ++I)
    Local.publish(fleet::BlobKind::Code, keyFor(I),
                  payloadFor(keyFor(I), C.PayloadBytes));
  measureLookups(Local, C, 1); // warm the page cache

  fleet::RemoteBackendOptions RO;
  RO.SocketPath = Socket;
  RO.FallbackDir = FleetDir;
  RO.Fallback = CodeCache::backendOptions(CacheLimits());
  fleet::RemoteCacheBackend Remote(std::move(RO));
  measureLookups(Remote, C, 1); // warm-up (and connection establishment)
  auto [LocalSeq, RemoteSeq] = interleavedLookups(Local, Remote, C);
  // A concurrent storm through the group-commit combiner: per-call medians
  // include queueing, so the number batching improves is the amortized
  // wall-clock cost per lookup.
  LookupMeasurement RemoteBatched =
      measureLookups(Remote, C, C.LatencyThreads);
  double Ratio =
      LocalSeq.MedianUs > 0 ? RemoteSeq.MedianUs / LocalSeq.MedianUs : 0;
  uint64_t BatchedLookups = Remote.stats().BatchedLookups;
  bool ServiceStayedUp = Remote.connected();

  std::vector<std::pair<std::string, uint64_t>> DaemonStats =
      Remote.remoteStats();
  stopDaemon(Daemon);

  // --- Report ------------------------------------------------------------
  bench::JsonReporter Report("fleet_throughput");
  Report.beginRow("cold_storm")
      .metric("clients", C.Clients)
      .metric("unique_keys", C.Keys)
      .metric("payload_bytes", static_cast<double>(C.PayloadBytes))
      .metric("compiles", static_cast<double>(ColdCompiles))
      .metric("served_from_fleet", static_cast<double>(ColdServed))
      .metric("hits", static_cast<double>(ColdHits))
      .metric("errors", static_cast<double>(ColdErrors))
      .metric("wall_seconds", ColdSeconds);
  Report.beginRow("warm_fleet")
      .metric("clients", C.Clients)
      .metric("hits", static_cast<double>(WarmHits))
      .metric("compiles", static_cast<double>(WarmCompiles))
      .metric("errors", static_cast<double>(WarmErrors))
      .metric("wall_seconds", WarmSeconds);
  Report.beginRow("remote_latency")
      .metric("local_median_us", LocalSeq.MedianUs)
      .metric("remote_median_us", RemoteSeq.MedianUs)
      .metric("ratio", Ratio)
      .metric("batched_amortized_us", RemoteBatched.AmortizedUs)
      .metric("latency_threads", C.LatencyThreads)
      .metric("batched_lookups", static_cast<double>(BatchedLookups))
      .metric("misses",
              static_cast<double>(LocalSeq.Misses + RemoteSeq.Misses +
                                  RemoteBatched.Misses));
  {
    Report.beginRow("daemon_stats");
    for (const auto &KV : DaemonStats)
      Report.metric(KV.first, static_cast<double>(KV.second));
  }
  std::string Error;
  if (!Report.write("BENCH_fleet.json", &Error)) {
    std::fprintf(stderr, "FATAL: %s\n", Error.c_str());
    return 1;
  }

  std::printf("fleet_throughput (%s): %u clients x %u keys\n",
              Smoke ? "smoke" : "full", C.Clients, C.Keys);
  std::printf("  cold storm : %llu compiles (want %u), %llu served, "
              "%llu hits, %.3fs\n",
              static_cast<unsigned long long>(ColdCompiles), C.Keys,
              static_cast<unsigned long long>(ColdServed),
              static_cast<unsigned long long>(ColdHits), ColdSeconds);
  std::printf("  warm fleet : %llu/%u hits, %llu compiles, %.3fs\n",
              static_cast<unsigned long long>(WarmHits),
              C.Clients * C.Keys,
              static_cast<unsigned long long>(WarmCompiles), WarmSeconds);
  std::printf("  latency    : local %.1fus, remote %.1fus (%.2fx), "
              "batched %.1fus amortized (%llu batches)\n",
              LocalSeq.MedianUs, RemoteSeq.MedianUs, Ratio,
              RemoteBatched.AmortizedUs,
              static_cast<unsigned long long>(BatchedLookups));

  // --- Gates -------------------------------------------------------------
  int Failures = 0;
  auto Gate = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "GATE FAILED: %s\n", What);
      ++Failures;
    }
  };
  Gate(ColdErrors == 0 && WarmErrors == 0,
       "clients observed corrupt payloads or failed");
  Gate(ColdCompiles == C.Keys,
       "cold storm must compile each unique specialization exactly once");
  Gate(ColdCompiles + ColdServed + ColdHits ==
           static_cast<uint64_t>(C.Clients) * C.Keys,
       "every cold lookup must resolve to a compile, a wait, or a hit");
  Gate(WarmCompiles == 0 &&
           WarmHits == static_cast<uint64_t>(C.Clients) * C.Keys,
       "warm fleet must perform zero compiles");
  Gate(LocalSeq.Misses + RemoteSeq.Misses + RemoteBatched.Misses == 0,
       "latency phase must only measure hits");
  Gate(ServiceStayedUp, "remote backend fell back to local mid-benchmark");
  Gate(BatchedLookups > 0,
       "concurrent lookups never coalesced into a batch frame");
  Gate(Ratio <= 5.0, "remote-hit latency exceeds 5x the local disk hit");

  fs::removeTree(Root);
  return Failures == 0 ? 0 : 1;
}
