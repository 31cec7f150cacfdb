//===- fleet_cache_test.cpp - fleet-scale shared cache tests --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The fleet cache stack, bottom to top: wire-protocol codec (including
// malformed frames and a seeded mutant sweep), the flat local
// directory backend (budget eviction covering code AND tune files,
// lock-file compile claims with stale-steal), the in-process cache service
// plus its RemoteCacheBackend client (dedup across connections, claim
// release on disconnect, batched lookups, daemon-outage fallback), and the
// CodeCache / JitRuntime integration (RemoteHits attribution, fleet-served
// compiles end to end).
//
//===----------------------------------------------------------------------===//

#include "Mutation.h"
#include "TestUtil.h"

#include "fleet/CacheServer.h"
#include "fleet/Protocol.h"
#include "fleet/RemoteBackend.h"
#include "jit/CodeCache.h"
#include "jit/JitRuntime.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace pir;
using namespace proteus;
using namespace proteus::fleet;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

std::vector<uint8_t> blob(size_t N, uint8_t Fill) {
  return std::vector<uint8_t>(N, Fill);
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(FleetProtocolTest, RequestsRoundTripEveryOp) {
  wire::Request Pub;
  Pub.Kind = wire::Op::Publish;
  Pub.Blob = BlobKind::Tune;
  Pub.Key = 0xdeadbeefcafef00dULL;
  Pub.Bytes = blob(100, 0x5A);
  auto D = wire::decodeRequest(wire::encodeRequest(Pub));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, wire::Op::Publish);
  EXPECT_EQ(D->Blob, BlobKind::Tune);
  EXPECT_EQ(D->Key, Pub.Key);
  EXPECT_EQ(D->Bytes, Pub.Bytes);

  wire::Request Batch;
  Batch.Kind = wire::Op::Batch;
  Batch.BatchKeys = {{0, 1}, {1, 2}, {0, 0xffffffffffffffffULL}};
  auto DB = wire::decodeRequest(wire::encodeRequest(Batch));
  ASSERT_TRUE(DB.has_value());
  EXPECT_EQ(DB->BatchKeys, Batch.BatchKeys);

  for (wire::Op Op : {wire::Op::Ping, wire::Op::Lookup, wire::Op::Acquire,
                      wire::Op::Release, wire::Op::Remove, wire::Op::Clear,
                      wire::Op::Stats}) {
    wire::Request R;
    R.Kind = Op;
    R.Key = 99;
    auto Dec = wire::decodeRequest(wire::encodeRequest(R));
    ASSERT_TRUE(Dec.has_value()) << static_cast<int>(Op);
    EXPECT_EQ(Dec->Kind, Op);
  }
}

TEST(FleetProtocolTest, ResponsesRoundTripEveryShape) {
  wire::Response Hit;
  Hit.Code = wire::Status::Hit;
  Hit.Bytes = blob(64, 0xAB);
  auto D = wire::decodeResponse(wire::encodeResponse(Hit));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Code, wire::Status::Hit);
  EXPECT_EQ(D->Bytes, Hit.Bytes);

  wire::Response Err;
  Err.Code = wire::Status::Error;
  Err.Message = "shard on fire";
  auto DE = wire::decodeResponse(wire::encodeResponse(Err));
  ASSERT_TRUE(DE.has_value());
  EXPECT_EQ(DE->Message, "shard on fire");

  wire::Response Stats;
  Stats.Code = wire::Status::Ok;
  Stats.Stats = {{"hits", 7}, {"misses", 3}};
  auto DS = wire::decodeResponse(wire::encodeResponse(Stats));
  ASSERT_TRUE(DS.has_value());
  EXPECT_EQ(DS->Stats, Stats.Stats);

  wire::Response Batch;
  Batch.Code = wire::Status::Ok;
  Batch.BatchResults = {{wire::Status::Hit, blob(16, 1)},
                        {wire::Status::Miss, {}}};
  auto DBR = wire::decodeResponse(wire::encodeResponse(Batch));
  ASSERT_TRUE(DBR.has_value());
  EXPECT_EQ(DBR->BatchResults, Batch.BatchResults);
}

TEST(FleetProtocolTest, MalformedAndTruncatedPayloadsAreRejected) {
  EXPECT_FALSE(wire::decodeRequest({}).has_value());
  EXPECT_FALSE(wire::decodeRequest({0xFF}).has_value()) << "unknown op";
  EXPECT_FALSE(wire::decodeResponse({}).has_value());
  EXPECT_FALSE(wire::decodeResponse({0xEE}).has_value()) << "unknown status";

  // Every truncation of a valid Publish frame must be rejected, never
  // misdecoded.
  wire::Request Pub;
  Pub.Kind = wire::Op::Publish;
  Pub.Key = 42;
  Pub.Bytes = blob(32, 0x11);
  std::vector<uint8_t> Full = wire::encodeRequest(Pub);
  for (size_t Keep = 1; Keep < Full.size(); ++Keep) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Keep);
    EXPECT_FALSE(wire::decodeRequest(Cut).has_value())
        << "truncated to " << Keep << " bytes";
  }
  // Trailing garbage is a framing error, not ignorable padding.
  Full.push_back(0x00);
  EXPECT_FALSE(wire::decodeRequest(Full).has_value());
}

/// One valid frame of every request op and response shape.
struct ProtocolFrame {
  const char *Name;
  bool IsRequest;
  std::vector<uint8_t> Bytes;
};

const std::vector<ProtocolFrame> &protocolFrames() {
  static const std::vector<ProtocolFrame> Frames = [] {
    std::vector<uint8_t> Payload(24);
    for (size_t I = 0; I != Payload.size(); ++I)
      Payload[I] = static_cast<uint8_t>(I * 37);
    std::vector<ProtocolFrame> Out;
    auto Req = [&](const char *Name, wire::Op Op,
                   BlobKind Kind = BlobKind::Code,
                   std::vector<uint8_t> Bytes = {}) {
      wire::Request R;
      R.Kind = Op;
      R.Blob = Kind;
      R.Key = 0x0123456789abcdefULL;
      R.Bytes = std::move(Bytes);
      if (Op == wire::Op::Batch)
        R.BatchKeys = {{0, 1}, {1, 0xfedcba9876543210ULL}, {0, 7}};
      Out.push_back({Name, true, wire::encodeRequest(R)});
    };
    Req("ping", wire::Op::Ping);
    Req("lookup", wire::Op::Lookup, BlobKind::Tune);
    Req("publish", wire::Op::Publish, BlobKind::Code, Payload);
    Req("acquire", wire::Op::Acquire);
    Req("release", wire::Op::Release);
    Req("remove", wire::Op::Remove);
    Req("clear", wire::Op::Clear);
    Req("stats", wire::Op::Stats);
    Req("batch", wire::Op::Batch);
    auto Resp = [&](const char *Name, wire::Response R) {
      Out.push_back({Name, false, wire::encodeResponse(R)});
    };
    for (auto [Name, Code] : {std::pair{"ok", wire::Status::Ok},
                              std::pair{"miss", wire::Status::Miss},
                              std::pair{"owner", wire::Status::Owner},
                              std::pair{"inflight", wire::Status::InFlight}}) {
      wire::Response R;
      R.Code = Code;
      Resp(Name, R);
    }
    wire::Response Hit;
    Hit.Code = wire::Status::Hit;
    Hit.Bytes = Payload;
    Resp("hit", Hit);
    wire::Response Err;
    Err.Code = wire::Status::Error;
    Err.Message = "no space left";
    Resp("error", Err);
    wire::Response Stats;
    Stats.Stats = {{"hits", 7}, {"misses", 3}};
    Resp("stats-reply", Stats);
    wire::Response Batch;
    Batch.BatchResults = {{wire::Status::Hit, {1, 2, 3, 4}},
                          {wire::Status::Miss, {}}};
    Resp("batch-reply", Batch);
    return Out;
  }();
  return Frames;
}

/// The decoder's verdict on mutant \p I: "rejected", or the digest of the
/// accepted message encoded again. That encoding must decode too.
MutantVerdict protocolMutantVerdict(unsigned I) {
  const ProtocolFrame &F = protocolFrames()[I % protocolFrames().size()];
  Rng R(0x7f4a7c15ull * (I + 1));
  unsigned Kind = R.below(std::size(ByteMutationKinds));
  std::vector<uint8_t> Bytes = F.Bytes;
  mutateBytes(Bytes, Kind, R);
  std::optional<std::vector<uint8_t>> Again;
  if (F.IsRequest) {
    if (auto D = wire::decodeRequest(Bytes)) {
      Again = wire::encodeRequest(*D);
      EXPECT_TRUE(wire::decodeRequest(*Again)) << "mutant " << I;
    }
  } else if (auto D = wire::decodeResponse(Bytes)) {
    Again = wire::encodeResponse(*D);
    EXPECT_TRUE(wire::decodeResponse(*Again)) << "mutant " << I;
  }
  std::string Verdict = "rejected";
  if (Again) {
    FNV1aHash H;
    H.update(*Again);
    Verdict = "ok " + hashToHex(H.digest());
  }
  return {formatString("%u %s %s %s", I, F.Name, ByteMutationKinds[Kind],
                       Verdict.c_str()),
          Again.has_value()};
}

constexpr unsigned GoldenProtocolMutants = 1200;

TEST(FleetProtocolTest, MutantVerdictsMatchGolden) {
  expectMutantVerdictsMatchGolden(PROTEUS_PROTOCOL_MUTANTS,
                                  GoldenProtocolMutants, protocolMutantVerdict);
}

//===----------------------------------------------------------------------===//
// LocalDirBackend
//===----------------------------------------------------------------------===//

TEST(LocalBackendTest, PublishLookupRemoveClearRoundTrip) {
  TempDir Tmp;
  LocalDirBackend B(Tmp.Path, {});
  EXPECT_FALSE(B.lookup(BlobKind::Code, 1).has_value());
  EXPECT_TRUE(B.publish(BlobKind::Code, 1, blob(128, 0xA1)));
  EXPECT_TRUE(B.publish(BlobKind::Tune, 1, blob(64, 0xB2)));
  auto Code = B.lookup(BlobKind::Code, 1);
  ASSERT_TRUE(Code.has_value());
  EXPECT_EQ(Code->Bytes, blob(128, 0xA1));
  EXPECT_FALSE(Code->Remote) << "local hits are not remote-attributed";
  // Kinds live in disjoint key spaces.
  auto Tune = B.lookup(BlobKind::Tune, 1);
  ASSERT_TRUE(Tune.has_value());
  EXPECT_EQ(Tune->Bytes, blob(64, 0xB2));
  EXPECT_EQ(B.totalBytes(), 128u + 64u);
  EXPECT_TRUE(B.remove(BlobKind::Code, 1));
  EXPECT_FALSE(B.lookup(BlobKind::Code, 1).has_value());
  B.clear();
  EXPECT_EQ(B.totalBytes(), 0u);
  fleet::BackendStats S = B.stats();
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Misses, 0u);
  EXPECT_EQ(S.Publishes, 2u);
}

TEST(LocalBackendTest, EntriesLiveFlatInTheRootDirectory) {
  TempDir Tmp;
  LocalDirBackend B(Tmp.Path, {});
  ASSERT_TRUE(B.publish(BlobKind::Code, 0x77, blob(16, 1)));
  auto Names = fs::listFiles(Tmp.Path);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0].find("cache-jit-"), 0u)
      << "the layout must stay byte-compatible with the pre-fleet cache";
}

TEST(LocalBackendTest, BudgetEvictionCoversCodeAndTuneFiles) {
  TempDir Tmp;
  LocalBackendOptions O;
  O.BudgetBytes = 4 * 1024;
  LocalDirBackend B(Tmp.Path, O);
  // Tune records alone can blow the budget — the historical bug was that
  // only cache-jit-*.o files were accounted.
  for (uint64_t K = 0; K != 8; ++K) {
    ASSERT_TRUE(B.publish(BlobKind::Tune, K, blob(1024, 0x70)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(B.totalBytes(), O.BudgetBytes);
  EXPECT_GT(B.stats().Evictions, 0u) << "tune files must be evictable";
  // Mixed: code entries push out old tune entries and vice versa.
  ASSERT_TRUE(B.publish(BlobKind::Code, 100, blob(2048, 0x33)));
  EXPECT_LE(B.totalBytes(), O.BudgetBytes);
  EXPECT_TRUE(B.lookup(BlobKind::Code, 100).has_value())
      << "the just-published entry must survive its own eviction pass";
}

TEST(LocalBackendTest, CompileClaimsDedupAcrossBackendInstances) {
  TempDir Tmp;
  // Two backends over one directory = two processes sharing a cache.
  LocalDirBackend A(Tmp.Path, {}), B(Tmp.Path, {});
  EXPECT_EQ(A.beginCompile(42), CompileClaim::Owner);
  EXPECT_EQ(B.beginCompile(42), CompileClaim::InFlightElsewhere);
  EXPECT_EQ(A.beginCompile(43), CompileClaim::Owner)
      << "claims are per-key, not global";
  A.endCompile(42);
  EXPECT_EQ(B.beginCompile(42), CompileClaim::Owner);
  B.endCompile(42);
  EXPECT_GT(B.stats().DedupHits, 0u);
}

TEST(LocalBackendTest, StaleClaimFromDeadOwnerIsStolen) {
  TempDir Tmp;
  LocalBackendOptions O;
  O.StaleLockMs = 60;
  LocalDirBackend A(Tmp.Path, O), B(Tmp.Path, O);
  EXPECT_EQ(A.beginCompile(7), CompileClaim::Owner);
  // A "crashes" without endCompile. Fresh claims see in-flight until the
  // lock goes stale, then exactly one steal succeeds.
  EXPECT_EQ(B.beginCompile(7), CompileClaim::InFlightElsewhere);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(B.beginCompile(7), CompileClaim::Owner);
  B.endCompile(7);
}

//===----------------------------------------------------------------------===//
// CacheServer + RemoteCacheBackend
//===----------------------------------------------------------------------===//

struct ServerFixture {
  TempDir Tmp;
  std::string Socket;
  std::unique_ptr<CacheServer> Server;

  ServerFixture() {
    Socket = Tmp.Path + "/cached.sock";
    CacheServerOptions O;
    O.SocketPath = Socket;
    O.Dir = Tmp.Path + "/store";
    O.Workers = 2;
    Server = CacheServer::start(O);
  }

  std::unique_ptr<RemoteCacheBackend> client() const {
    RemoteBackendOptions RO;
    RO.SocketPath = Socket;
    RO.FallbackDir = Tmp.Path + "/fallback";
    return std::make_unique<RemoteCacheBackend>(std::move(RO));
  }
};

TEST(CacheServerTest, PublishedEntriesAreVisibleToEveryClient) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client(), B = F.client();
  EXPECT_FALSE(A->lookup(BlobKind::Code, 5).has_value());
  EXPECT_TRUE(A->publish(BlobKind::Code, 5, blob(256, 0xC5)));
  auto Hit = B->lookup(BlobKind::Code, 5);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Bytes, blob(256, 0xC5));
  EXPECT_TRUE(Hit->Remote) << "daemon-served hits must be attributed remote";
  EXPECT_EQ(B->totalBytes(), 256u);
  EXPECT_TRUE(B->remove(BlobKind::Code, 5));
  EXPECT_FALSE(A->lookup(BlobKind::Code, 5).has_value());
  A->clear();
  EXPECT_EQ(A->totalBytes(), 0u);
  EXPECT_TRUE(A->connected());
  EXPECT_GE(F.Server->connectionsAccepted(), 2u);
}

TEST(CacheServerTest, AcquireDedupsAcrossConnections) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client(), B = F.client();
  EXPECT_EQ(A->beginCompile(11), CompileClaim::Owner);
  EXPECT_EQ(B->beginCompile(11), CompileClaim::InFlightElsewhere);
  A->endCompile(11);
  EXPECT_EQ(B->beginCompile(11), CompileClaim::Owner);
  B->endCompile(11);
}

TEST(CacheServerTest, DaemonClaimsAlsoBlockDaemonlessProcesses) {
  // Mixed fleet: one process talks to the daemon, another mounts the same
  // directory with a plain local backend. The daemon takes the on-disk lock
  // too, so both halves of the dedup protocol agree.
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client();
  LocalDirBackend Local(F.Tmp.Path + "/store", {});
  EXPECT_EQ(A->beginCompile(21), CompileClaim::Owner);
  EXPECT_EQ(Local.beginCompile(21), CompileClaim::InFlightElsewhere);
  A->endCompile(21);
  EXPECT_EQ(Local.beginCompile(21), CompileClaim::Owner);
  Local.endCompile(21);
}

TEST(CacheServerTest, DefaultDaemonAndDefaultRuntimeShareOneStore) {
  // A daemon, a daemon-less process and a daemon client's outage fallback,
  // each on its default options over one directory, see one store.
  TempDir Tmp;
  const std::string Store = Tmp.Path + "/store";
  CacheServerOptions SO;
  SO.SocketPath = Tmp.Path + "/cached.sock";
  SO.Dir = Store;
  auto Server = CacheServer::start(SO);
  ASSERT_TRUE(Server);
  auto clientOf = [&] {
    RemoteBackendOptions RO;
    RO.SocketPath = SO.SocketPath;
    RO.FallbackDir = Store;
    RO.Fallback = CodeCache::backendOptions(CacheLimits());
    RO.TimeoutMs = 200;
    return std::make_unique<RemoteCacheBackend>(std::move(RO));
  };
  auto Client = clientOf();
  LocalDirBackend Local(Store, CodeCache::backendOptions(CacheLimits()));

  ASSERT_TRUE(Client->publish(BlobKind::Code, 0x51, blob(96, 0x51)));
  auto Hit = Local.lookup(BlobKind::Code, 0x51);
  EXPECT_TRUE(Hit && Hit->Bytes == blob(96, 0x51))
      << "an entry published through the daemon must be found locally";

  ASSERT_EQ(Client->beginCompile(0x52), CompileClaim::Owner);
  EXPECT_EQ(Local.beginCompile(0x52), CompileClaim::InFlightElsewhere)
      << "a claim held through the daemon must block a local claimant";
  Client->endCompile(0x52);
  EXPECT_EQ(Local.totalBytes(), Client->totalBytes());
  EXPECT_EQ(Local.totalBytes(), 96u);
  EXPECT_TRUE(Client->connected()) << "every operation above used the daemon";

  Server->stop();
  auto Down = clientOf();
  auto Fell = Down->lookup(BlobKind::Code, 0x51);
  EXPECT_TRUE(Fell && Fell->Bytes == blob(96, 0x51))
      << "the fallback must serve the daemon's entry";
  EXPECT_FALSE(Down->connected());
  Local.clear();
  EXPECT_FALSE(Down->lookup(BlobKind::Code, 0x51).has_value())
      << "a local clear() must remove the daemon's entry";
}

TEST(CacheServerTest, LfuDaemonKeepsTheMostExecutedEntry) {
  // The daemon as `proteus-cached --policy=lfu --budget=N` runs it, with a
  // budget of two 1,000-byte objects in their 48-byte frames, behind a
  // CodeCache on the daemon client. The entry executed five times must
  // outlive the never-executed one, as it does without the daemon.
  TempDir Tmp;
  CacheServerOptions SO;
  SO.SocketPath = Tmp.Path + "/cached.sock";
  SO.Dir = Tmp.Path + "/store";
  SO.Policy = fleet::EvictPolicy::LFU;
  SO.BudgetBytes = 2 * (1000 + 48);
  auto Server = CacheServer::start(SO);
  ASSERT_TRUE(Server);
  RemoteBackendOptions RO;
  RO.SocketPath = SO.SocketPath;
  RO.FallbackDir = Tmp.Path + "/fallback";
  CodeCache C(true, true, RO.FallbackDir, CacheLimits(),
              std::make_unique<RemoteCacheBackend>(RO));

  const uint64_t A = 0xA, B = 0xB, Cc = 0xC;
  C.insert(A, blob(1000, 0xA1));
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(C.lookup(A).has_value());
  C.clearMemory(); // writes A's count of 5 back through the daemon
  // Distinct write times, so ties between the cold entries break by age.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  C.insert(B, blob(1000, 0xB1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  C.insert(Cc, blob(1000, 0xC1));

  LocalDirBackend &Store = Server->backend();
  EXPECT_EQ(Store.stats().Evictions, 1u);
  EXPECT_TRUE(Store.lookup(BlobKind::Code, A).has_value())
      << "the most executed entry must survive the daemon's LFU eviction";
  EXPECT_FALSE(Store.lookup(BlobKind::Code, B).has_value())
      << "the oldest never-executed entry is the LFU victim";
  EXPECT_TRUE(Store.lookup(BlobKind::Code, Cc).has_value());
  EXPECT_EQ(C.backend()->stats().FallbackOps, 0u)
      << "every operation above must have gone through the daemon";
}

TEST(CacheServerTest, OwnerDisconnectReleasesItsClaims) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto B = F.client();
  {
    auto A = F.client();
    EXPECT_EQ(A->beginCompile(13), CompileClaim::Owner);
    EXPECT_EQ(B->beginCompile(13), CompileClaim::InFlightElsewhere);
  } // A's connection closes with the claim held ("client crashed")
  // The daemon must auto-release; B acquires within a bounded retry loop.
  CompileClaim Got = CompileClaim::InFlightElsewhere;
  for (int Try = 0; Try != 100 && Got != CompileClaim::Owner; ++Try) {
    Got = B->beginCompile(13);
    if (Got != CompileClaim::Owner)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(Got, CompileClaim::Owner)
      << "claims must die with their connection";
  B->endCompile(13);
}

TEST(CacheServerTest, PublishByOwnerReleasesTheClaim) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client(), B = F.client();
  EXPECT_EQ(A->beginCompile(17), CompileClaim::Owner);
  EXPECT_TRUE(A->publish(BlobKind::Code, 17, blob(64, 0x17)));
  // The publish IS the release: the next claimant wins immediately (and
  // finds the entry on its double-check lookup).
  EXPECT_EQ(B->beginCompile(17), CompileClaim::Owner);
  B->endCompile(17);
  EXPECT_TRUE(B->lookup(BlobKind::Code, 17).has_value());
}

TEST(CacheServerTest, StatsRpcExposesDaemonCounters) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client();
  A->publish(BlobKind::Code, 1, blob(32, 1));
  A->lookup(BlobKind::Code, 1);
  A->lookup(BlobKind::Code, 999);
  std::vector<std::pair<std::string, uint64_t>> Stats = A->remoteStats();
  ASSERT_FALSE(Stats.empty());
  auto Value = [&](const std::string &Name) -> uint64_t {
    for (const auto &KV : Stats)
      if (KV.first == Name)
        return KV.second;
    ADD_FAILURE() << "missing daemon stat: " << Name;
    return 0;
  };
  EXPECT_GE(Value("hits"), 1u);
  EXPECT_GE(Value("misses"), 1u);
  EXPECT_GE(Value("publishes"), 1u);
  EXPECT_GE(Value("total_bytes"), 32u);
}

TEST(CacheServerTest, ConcurrentLookupsBatchAndStayCorrect) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  auto A = F.client();
  constexpr unsigned Keys = 16;
  for (uint64_t K = 0; K != Keys; ++K)
    ASSERT_TRUE(A->publish(BlobKind::Code, K, blob(512, static_cast<uint8_t>(K))));
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != 6; ++T)
    Ts.emplace_back([&, T] {
      for (unsigned I = 0; I != 50; ++I) {
        uint64_t K = (T * 7 + I) % Keys;
        auto Hit = A->lookup(BlobKind::Code, K);
        if (!Hit || Hit->Bytes != blob(512, static_cast<uint8_t>(K)))
          Wrong.fetch_add(1);
      }
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_TRUE(A->connected());
  // 6 threads hammering one connection: the group-commit combiner must have
  // coalesced at least one window into a multi-lookup batch frame.
  EXPECT_GT(A->stats().BatchedLookups, 0u);
}

TEST(CacheServerTest, UnreachableDaemonFallsBackToLocalDir) {
  TempDir Tmp;
  RemoteBackendOptions RO;
  RO.SocketPath = Tmp.Path + "/nobody-home.sock";
  RO.FallbackDir = Tmp.Path;
  RO.TimeoutMs = 200;
  RemoteCacheBackend B(std::move(RO));
  EXPECT_TRUE(B.publish(BlobKind::Code, 3, blob(128, 0x99)));
  auto Hit = B.lookup(BlobKind::Code, 3);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Bytes, blob(128, 0x99));
  EXPECT_FALSE(Hit->Remote) << "fallback hits are local, not remote";
  EXPECT_FALSE(B.connected());
  EXPECT_GT(B.stats().FallbackOps, 0u);
  EXPECT_TRUE(B.remoteStats().empty());
  // Claims degrade to the lock-file protocol on the fallback directory.
  EXPECT_EQ(B.beginCompile(5), CompileClaim::Owner);
  B.endCompile(5);
}

//===----------------------------------------------------------------------===//
// CodeCache / JitRuntime integration
//===----------------------------------------------------------------------===//

TEST(FleetCodeCacheTest, RemoteHitsAreAttributedSeparately) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  RemoteBackendOptions RO;
  RO.SocketPath = F.Socket;
  RO.FallbackDir = F.Tmp.Path + "/fallback";
  CacheLimits L;
  CodeCache C(false, true, F.Tmp.Path + "/store", L,
              std::make_unique<RemoteCacheBackend>(std::move(RO)));
  C.insert(8, blob(64, 8));
  EXPECT_TRUE(C.lookup(8).has_value());
  CodeCacheStats S = C.stats();
  EXPECT_EQ(S.RemoteHits, 1u) << "daemon-served hit must count as remote";
  EXPECT_EQ(S.PersistentHits, 0u);
  EXPECT_EQ(S.MemoryHits, 0u);
}

TEST(FleetCodeCacheTest, WaitRemoteCompileServesTheOwnersPublish) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  RemoteBackendOptions ROA, ROB;
  ROA.SocketPath = ROB.SocketPath = F.Socket;
  ROA.FallbackDir = ROB.FallbackDir = F.Tmp.Path + "/fallback";
  CacheLimits L;
  CodeCache A(false, true, F.Tmp.Path + "/store", L,
              std::make_unique<RemoteCacheBackend>(std::move(ROA)));
  CodeCache B(false, true, F.Tmp.Path + "/store", L,
              std::make_unique<RemoteCacheBackend>(std::move(ROB)));

  ASSERT_EQ(A.beginCompile(31), CompileClaim::Owner);
  ASSERT_EQ(B.beginCompile(31), CompileClaim::InFlightElsewhere);
  std::thread Owner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    A.insert(31, blob(96, 0x31), CodeTier::Final, 0xF1);
    A.endCompile(31);
  });
  std::optional<CachedCode> Served = B.waitRemoteCompile(31, 5000);
  Owner.join();
  ASSERT_TRUE(Served.has_value()) << "waiter must see the owner's publish";
  EXPECT_EQ(Served->Object, blob(96, 0x31));
  EXPECT_EQ(Served->PipelineFingerprint, 0xF1u);
  EXPECT_GT(B.stats().RemoteHits + B.stats().PersistentHits, 0u);
}

TEST(FleetCodeCacheTest, WaitRemoteCompileDeletesACorruptPublish) {
  // The owner publishes a torn entry and releases its claim. The waiter
  // must count and trace the corrupt entry like a lookup does, delete it,
  // and inherit the compile.
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  RemoteBackendOptions ROA, ROB;
  ROA.SocketPath = ROB.SocketPath = F.Socket;
  ROA.FallbackDir = ROB.FallbackDir = F.Tmp.Path + "/fallback";
  CacheLimits L;
  CodeCache A(false, true, F.Tmp.Path + "/store", L,
              std::make_unique<RemoteCacheBackend>(std::move(ROA)));
  CodeCache B(true, true, F.Tmp.Path + "/store", L,
              std::make_unique<RemoteCacheBackend>(std::move(ROB)));

  ASSERT_EQ(A.beginCompile(41), CompileClaim::Owner);
  ASSERT_EQ(B.beginCompile(41), CompileClaim::InFlightElsewhere);
  const std::string TracePath = F.Tmp.Path + "/trace.json";
  trace::start("");
  std::thread Owner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    A.backend()->publish(BlobKind::Code, 41, blob(17, 0x41));
    A.endCompile(41);
  });
  std::optional<CachedCode> Served = B.waitRemoteCompile(41, 5000);
  Owner.join();
  trace::stop();
  EXPECT_FALSE(Served.has_value()) << "the waiter inherits the compile";
  B.endCompile(41);
  const CodeCacheStats S = B.stats();
  EXPECT_EQ(S.CorruptPersistentEntries, 1u);
  EXPECT_EQ(S.RemoteHits + S.PersistentHits, 0u);
  EXPECT_EQ(B.memoryEntries(), 0u) << "nothing corrupt reaches memory";
  EXPECT_FALSE(A.backend()->lookup(BlobKind::Code, 41).has_value())
      << "the corrupt entry is deleted";
  ASSERT_TRUE(trace::writeJson(TracePath));
  std::string Err;
  EXPECT_TRUE(trace::validateTraceFile(TracePath, {"cache.corrupt"}, &Err))
      << Err;
}

TEST(FleetCodeCacheTest, ClaimsAreNoOpsWithoutAPersistentLevel) {
  CodeCache C(true, false, "");
  EXPECT_EQ(C.beginCompile(1), CompileClaim::Owner);
  C.endCompile(1); // must not crash
}

TEST(FleetJitTest, EndToEndJitThroughTheSharedService) {
  ServerFixture F;
  ASSERT_TRUE(F.Server);
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  JitConfig JC;
  JC.CacheDir = F.Tmp.Path + "/store";
  JC.CacheRemote = true;
  JC.CacheSocket = F.Socket;

  auto RunOnce = [&](uint64_t ExpectCompilations, uint64_t ExpectRemoteHits) {
    Device Dev(getAmdGcnSimTarget(), 1 << 22);
    JitRuntime Jit(Dev, Prog.ModuleId, JC);
    LoadedProgram LP(Dev, Prog, &Jit);
    ASSERT_TRUE(LP.ok()) << LP.error();
    DevicePtr X = 0, Y = 0;
    gpuMalloc(Dev, &X, 64 * 8);
    gpuMalloc(Dev, &Y, 64 * 8);
    std::vector<double> HX(64, 2.0), HY(64, 1.0);
    gpuMemcpyHtoD(Dev, X, HX.data(), 64 * 8);
    gpuMemcpyHtoD(Dev, Y, HY.data(), 64 * 8);
    std::vector<KernelArg> Args = {{sem::boxF64(3.0)}, {X}, {Y}, {64}};
    std::string Err;
    ASSERT_EQ(LP.launch("daxpy", Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args, &Err),
              GpuError::Success)
        << Err;
    std::vector<double> Out(64);
    gpuMemcpyDtoH(Dev, Out.data(), Y, 64 * 8);
    for (double V : Out)
      EXPECT_DOUBLE_EQ(V, 7.0); // 3*2 + 1
    EXPECT_EQ(Jit.stats().Compilations, ExpectCompilations);
    EXPECT_GE(Jit.cache().stats().RemoteHits, ExpectRemoteHits);
  };

  RunOnce(1, 0); // cold: compiles, publishes to the daemon
  RunOnce(0, 1); // a second "process" is served by the daemon, no compile
  // The object really lives daemon-side: the store holds it, the fallback
  // dir was never used.
  EXPECT_GT(F.Server->backend().totalBytes(), 0u);
}

} // namespace
