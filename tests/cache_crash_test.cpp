//===- cache_crash_test.cpp - persistent-cache fault injection -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Fault battery for the persistent code cache: truncated, bit-flipped and
// garbage cache-jit-<hash>.o files (simulating crashes mid-write on the
// pre-atomic-rename protocol, bit rot, or tampering) must be detected by
// the entry integrity header, treated as misses, deleted, and recompiled —
// never loaded as kernel objects. Also covers the write-to-temp +
// atomic-rename protocol itself: no temp files survive a successful insert,
// and stale temp leftovers are swept by clearPersistent().
//
//===----------------------------------------------------------------------===//

#include "Mutation.h"
#include "TestUtil.h"

#include "fleet/CacheServer.h"
#include "fleet/LocalBackend.h"
#include "fleet/RemoteBackend.h"
#include "ir/Context.h"
#include "jit/Program.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

/// The single cache file in \p Dir (asserts there is exactly one).
std::string onlyCacheFile(const std::string &Dir) {
  auto Names = fs::listFiles(Dir);
  EXPECT_EQ(Names.size(), 1u);
  return Names.empty() ? "" : Dir + "/" + Names[0];
}

std::vector<uint8_t> objBlob() {
  std::vector<uint8_t> Obj(256);
  for (size_t I = 0; I != Obj.size(); ++I)
    Obj[I] = static_cast<uint8_t>(I * 7 + 1);
  return Obj;
}

TEST(CacheCrashTest, TruncatedEntriesAreDetectedAndRecompiled) {
  TempDir Tmp;
  const std::vector<uint8_t> Obj = objBlob();
  // Memory level disabled so every lookup exercises the persistent path.
  CodeCache C(false, true, Tmp.Path);
  C.insert(7, Obj);
  std::string Path = onlyCacheFile(Tmp.Path);
  auto Full = fs::readFile(Path);
  ASSERT_TRUE(Full.has_value());
  ASSERT_GT(Full->size(), Obj.size()) << "entries must carry a header";

  uint64_t ExpectedCorrupt = 0;
  for (size_t Keep : {size_t(0), size_t(10), Full->size() - Obj.size() - 1,
                      Full->size() - Obj.size() + Obj.size() / 2,
                      Full->size() - 1}) {
    // Simulate a crash mid-write: only a prefix reached the disk.
    std::vector<uint8_t> Truncated(Full->begin(), Full->begin() + Keep);
    ASSERT_TRUE(fs::writeFile(Path, Truncated));
    EXPECT_FALSE(C.lookup(7).has_value())
        << "truncated to " << Keep << " bytes must be a miss";
    EXPECT_EQ(C.stats().CorruptPersistentEntries, ++ExpectedCorrupt);
    EXPECT_FALSE(fs::exists(Path)) << "corrupt entry must be deleted";
    // The JIT recompiles and re-inserts on such a miss.
    C.insert(7, Obj);
    auto Hit = C.lookup(7);
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(*Hit, Obj);
  }
}

TEST(CacheCrashTest, BitFlippedPayloadIsRejectedByHash) {
  TempDir Tmp;
  const std::vector<uint8_t> Obj = objBlob();
  CodeCache C(false, true, Tmp.Path);
  C.insert(9, Obj);
  std::string Path = onlyCacheFile(Tmp.Path);
  auto Bytes = fs::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  // Flip one bit in the payload region (past the header) — size still
  // matches, so only the payload hash can catch it.
  (*Bytes)[Bytes->size() - Obj.size() / 2] ^= 0x40;
  ASSERT_TRUE(fs::writeFile(Path, *Bytes));
  EXPECT_FALSE(C.lookup(9).has_value());
  EXPECT_EQ(C.stats().CorruptPersistentEntries, 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CacheCrashTest, DirectoryAtAnEntryPathIsAMiss) {
  TempDir Tmp;
  const std::vector<uint8_t> Obj = objBlob();
  CodeCache C(false, true, Tmp.Path);
  C.insert(11, Obj);
  std::string Path = onlyCacheFile(Tmp.Path);
  ASSERT_TRUE(fs::removeFile(Path));
  ASSERT_TRUE(fs::createDirectories(Path));
  EXPECT_FALSE(C.lookup(11).has_value());
  EXPECT_EQ(C.stats().PersistentHits, 0u);
}

TEST(CacheCrashTest, GarbageAndWrongMagicFilesAreRejected) {
  TempDir Tmp;
  CodeCache C(false, true, Tmp.Path);
  std::string Path = Tmp.Path + "/cache-jit-" + hashToHex(0x77) + ".o";
  // A raw object written by an old (pre-framing) cache version, or any
  // garbage: no magic, must be treated as a miss.
  ASSERT_TRUE(fs::writeFile(Path, std::vector<uint8_t>(512, 0xCD)));
  EXPECT_FALSE(C.lookup(0x77).has_value());
  EXPECT_EQ(C.stats().CorruptPersistentEntries, 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CacheCrashTest, InsertLeavesNoTempFilesAndSweepCleansStaleOnes) {
  TempDir Tmp;
  CodeCache C(true, true, Tmp.Path);
  for (uint64_t H = 1; H <= 8; ++H)
    C.insert(H, objBlob());
  for (const std::string &Name : fs::listFiles(Tmp.Path))
    EXPECT_EQ(Name.find(".tmp-"), std::string::npos)
        << "temp file leaked: " << Name;

  // A crash between writing the temp file and renaming it leaves a
  // cache-jit-*.tmp-* orphan; clearPersistent() must sweep it.
  std::string Stale =
      Tmp.Path + "/cache-jit-" + hashToHex(0xbad) + ".o.tmp-12345-0";
  ASSERT_TRUE(fs::writeFile(Stale, {1, 2, 3}));
  C.clearPersistent();
  EXPECT_TRUE(fs::listFiles(Tmp.Path).empty())
      << "stale temp files must be swept";
}

TEST(CacheCrashTest, EndToEndJitRecompilesAfterCorruption) {
  TempDir Tmp;
  Context Ctx;
  Module M(Ctx, "app");
  buildDaxpyKernel(M);
  AotOptions AO;
  AO.Arch = GpuArch::AmdGcnSim;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(M, AO);

  JitConfig JC;
  JC.CacheDir = Tmp.Path;

  auto RunOnce = [&](uint64_t ExpectCompilations) {
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
    if (ExpectCompilations > 0) {
      EXPECT_GE(Jit.cache().stats().Misses, ExpectCompilations);
    }
  };

  RunOnce(1); // cold: compiles and persists

  // Corrupt the persisted entry as a crash mid-write would have.
  std::string Path = onlyCacheFile(Tmp.Path);
  auto Bytes = fs::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  Bytes->resize(Bytes->size() / 2);
  ASSERT_TRUE(fs::writeFile(Path, *Bytes));

  RunOnce(1); // detects corruption, recompiles, correct results
  RunOnce(0); // the re-persisted entry is valid again
}

TEST(CacheCrashTest, TierTagAndFingerprintSurviveDiskRoundTrip) {
  TempDir Tmp;
  const std::vector<uint8_t> Obj = objBlob();
  const uint64_t Fp0 = jitPipelineFingerprint(CodeTier::Tier0);
  const uint64_t FpF = jitPipelineFingerprint(CodeTier::Final);
  {
    CodeCache C(false, true, Tmp.Path);
    C.insert(21, Obj, CodeTier::Tier0, Fp0);
    C.insert(22, Obj, CodeTier::Final, FpF);
  }
  // A fresh cache (fresh process) must decode both tags from the frame.
  CodeCache C2(false, true, Tmp.Path);
  auto T0 = C2.lookupEntry(21);
  ASSERT_TRUE(T0.has_value());
  EXPECT_EQ(T0->Object, Obj);
  EXPECT_EQ(T0->Tier, CodeTier::Tier0);
  EXPECT_EQ(T0->PipelineFingerprint, Fp0);
  auto Fin = C2.lookupEntry(22);
  ASSERT_TRUE(Fin.has_value());
  EXPECT_EQ(Fin->Tier, CodeTier::Final);
  EXPECT_EQ(Fin->PipelineFingerprint, FpF);
}

TEST(CacheCrashTest, FlippedTierMetadataIsRejectedByIntegrityHash) {
  // The integrity hash covers the tier tag and pipeline fingerprint, not
  // just the payload: flipping either turns the entry into a detected
  // corruption, never a Final-masquerading Tier-0 (or stale-pipeline)
  // binary.
  for (size_t Offset : {size_t(32) /* fingerprint */, size_t(40) /* tier */}) {
    TempDir Tmp;
    CodeCache C(false, true, Tmp.Path);
    C.insert(33, objBlob(), CodeTier::Tier0,
             jitPipelineFingerprint(CodeTier::Tier0));
    std::string Path = onlyCacheFile(Tmp.Path);
    auto Bytes = fs::readFile(Path);
    ASSERT_TRUE(Bytes.has_value());
    (*Bytes)[Offset] ^= 0x01;
    ASSERT_TRUE(fs::writeFile(Path, *Bytes));
    EXPECT_FALSE(C.lookupEntry(33).has_value())
        << "flipped metadata byte at " << Offset << " must be a miss";
    EXPECT_EQ(C.stats().CorruptPersistentEntries, 1u);
    EXPECT_FALSE(fs::exists(Path)) << "corrupt entry must be deleted";
  }
}

TEST(CacheCrashTest, ProcessCrashMidPublishIsInvisibleAndRecoverable) {
  // A real second process claims the compile, gets as far as the temp file,
  // and dies — no publish, no release. The atomic-rename protocol must keep
  // the torn write invisible (a miss, not a corrupt entry), and the stale
  // claim must be stolen so the survivor recompiles exactly once.
  TempDir Tmp;
  const uint64_t Hash = 0x5107;
  fleet::LocalBackendOptions BO;
  BO.StaleLockMs = 400;

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    fleet::LocalDirBackend Crashing(Tmp.Path, BO);
    bool Owner = Crashing.beginCompile(Hash) == fleet::CompileClaim::Owner;
    // Crash mid-publish: only the half-written temp file reached the disk.
    fs::writeFile(Tmp.Path + "/cache-jit-" + hashToHex(Hash) + ".o.tmp-99-0",
                  {0xDE, 0xAD});
    _exit(Owner ? 0 : 1);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "child failed to take the claim";

  fleet::LocalDirBackend Survivor(Tmp.Path, BO);
  // The torn publish never became an entry.
  EXPECT_FALSE(Survivor.lookup(fleet::BlobKind::Code, Hash).has_value());
  // The dead owner's claim blocks until stale, then is stolen.
  EXPECT_EQ(Survivor.beginCompile(Hash), fleet::CompileClaim::InFlightElsewhere);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_EQ(Survivor.beginCompile(Hash), fleet::CompileClaim::Owner);
  EXPECT_TRUE(Survivor.publish(fleet::BlobKind::Code, Hash, objBlob()));
  Survivor.endCompile(Hash);
  auto Hit = Survivor.lookup(fleet::BlobKind::Code, Hash);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Bytes, objBlob());
  // The crash left no visible damage at the CodeCache level either; the
  // sweep removes the orphaned temp file.
  CodeCache C(false, true, Tmp.Path);
  EXPECT_EQ(C.stats().CorruptPersistentEntries, 0u);
  C.clearPersistent();
  EXPECT_TRUE(fs::listFiles(Tmp.Path).empty());
}

TEST(CacheCrashTest, DaemonCrashMidRunFallsBackToLocalPublishes) {
  // The shared cache service dies between two inserts: entries already
  // published stay readable through the fallback path (same directory),
  // new publishes divert to it, and nothing is ever served torn.
  TempDir Tmp;
  std::string Store = Tmp.Path + "/store";
  fleet::CacheServerOptions SO;
  SO.SocketPath = Tmp.Path + "/cached.sock";
  SO.Dir = Store;
  auto Server = fleet::CacheServer::start(SO);
  ASSERT_TRUE(Server);

  fleet::RemoteBackendOptions RO;
  RO.SocketPath = SO.SocketPath;
  RO.FallbackDir = Store;
  RO.TimeoutMs = 500;
  CodeCache C(false, true, Store, CacheLimits(),
              std::make_unique<fleet::RemoteCacheBackend>(std::move(RO)));

  C.insert(1, objBlob());
  ASSERT_TRUE(C.lookup(1).has_value());

  Server->stop(); // daemon "crashes"

  C.insert(2, objBlob()); // must divert to the local fallback
  auto H1 = C.lookup(1), H2 = C.lookup(2);
  ASSERT_TRUE(H1.has_value()) << "daemon-published entry lost in the crash";
  ASSERT_TRUE(H2.has_value()) << "fallback publish failed";
  EXPECT_EQ(*H1, objBlob());
  EXPECT_EQ(*H2, objBlob());
  EXPECT_EQ(C.stats().CorruptPersistentEntries, 0u);
  auto *Remote = static_cast<fleet::RemoteCacheBackend *>(C.backend());
  EXPECT_FALSE(Remote->connected());
  EXPECT_GT(Remote->stats().FallbackOps, 0u);
}

TEST(CacheCrashTest, Tier0InsertNeverDowngradesFinalEntry) {
  // A racing Tier-0 compile finishing after the Tier-1 promotion (or a
  // replayed persist) must not replace the better artifact at either level.
  TempDir Tmp;
  std::vector<uint8_t> FinalObj = objBlob();
  std::vector<uint8_t> Tier0Obj(128, 0x5A);
  CodeCache C(true, true, Tmp.Path);
  C.insert(55, FinalObj, CodeTier::Final,
           jitPipelineFingerprint(CodeTier::Final));
  C.insert(55, Tier0Obj, CodeTier::Tier0,
           jitPipelineFingerprint(CodeTier::Tier0));

  auto Mem = C.lookupEntry(55); // served by the memory level
  ASSERT_TRUE(Mem.has_value());
  EXPECT_EQ(Mem->Tier, CodeTier::Final);
  EXPECT_EQ(Mem->Object, FinalObj);

  C.clearMemory(); // force the persistent level
  auto Disk = C.lookupEntry(55);
  ASSERT_TRUE(Disk.has_value());
  EXPECT_EQ(Disk->Tier, CodeTier::Final) << "disk level was downgraded";
  EXPECT_EQ(Disk->Object, FinalObj);
}

TEST(CacheCrashTest, CrashBetweenTier0PersistAndPromotionRecovers) {
  // A run that persisted its Tier-0 baseline and died before the Tier-1
  // promotion leaves a valid, loadable Tier-0 entry — the next run serves
  // it and completes the promotion by re-inserting in place.
  TempDir Tmp;
  const std::vector<uint8_t> Baseline = objBlob();
  {
    CodeCache DyingRun(false, true, Tmp.Path);
    DyingRun.insert(77, Baseline, CodeTier::Tier0,
                    jitPipelineFingerprint(CodeTier::Tier0));
  } // promotion never happened

  CodeCache NextRun(false, true, Tmp.Path);
  auto Recovered = NextRun.lookupEntry(77);
  ASSERT_TRUE(Recovered.has_value()) << "Tier-0 baseline lost";
  EXPECT_EQ(Recovered->Object, Baseline);
  EXPECT_EQ(Recovered->Tier, CodeTier::Tier0);
  EXPECT_EQ(NextRun.stats().CorruptPersistentEntries, 0u);

  // The promotion this run performs overwrites the slot with the Final
  // artifact; yet another run must see only the promoted entry.
  std::vector<uint8_t> Promoted(192, 0x3C);
  NextRun.insert(77, Promoted, CodeTier::Final,
                 jitPipelineFingerprint(CodeTier::Final));
  CodeCache ThirdRun(false, true, Tmp.Path);
  auto Entry = ThirdRun.lookupEntry(77);
  ASSERT_TRUE(Entry.has_value());
  EXPECT_EQ(Entry->Tier, CodeTier::Final);
  EXPECT_EQ(Entry->Object, Promoted);
}

TEST(CacheCrashTest, TuningDecisionsShareTheEntryFrame) {
  TempDir Tmp;
  TuningDecision D;
  D.GridX = 3, D.GridY = 5, D.GridZ = 7;
  D.BlockX = 128, D.BlockY = 2, D.BlockZ = 1;
  D.Preset = 1;
  D.EnableLICM = 0;
  D.UnrollMaxTripCount = 17;
  D.UnrollMaxExpandedInstructions = 999;
  D.ExpectedSeconds = 1.25e-5;
  D.TrialsRun = 6;
  D.Bottleneck = 2;
  CodeCache(false, true, Tmp.Path).storeTuningDecision(0x7e, D);
  const std::string Path = onlyCacheFile(Tmp.Path);
  auto Bytes = fs::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  ASSERT_GE(Bytes->size(), 8u);
  EXPECT_EQ(std::string(reinterpret_cast<const char *>(Bytes->data()), 7),
            "PJITCC2")
      << "a tuning decision must ride in the code entry frame";

  CodeCache Fresh(false, true, Tmp.Path);
  std::optional<TuningDecision> Back = Fresh.lookupTuningDecision(0x7e);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->GridX, 3u);
  EXPECT_EQ(Back->GridY, 5u);
  EXPECT_EQ(Back->GridZ, 7u);
  EXPECT_EQ(Back->BlockX, 128u);
  EXPECT_EQ(Back->BlockY, 2u);
  EXPECT_EQ(Back->BlockZ, 1u);
  EXPECT_EQ(Back->Preset, 1);
  EXPECT_EQ(Back->EnableLICM, 0);
  EXPECT_EQ(Back->UnrollMaxTripCount, 17u);
  EXPECT_EQ(Back->UnrollMaxExpandedInstructions, 999u);
  EXPECT_EQ(Back->ExpectedSeconds, 1.25e-5);
  EXPECT_EQ(Back->TrialsRun, 6u);
  EXPECT_EQ(Back->Bottleneck, 2);
  EXPECT_EQ(Fresh.stats().CorruptPersistentEntries, 0u);

  // A decision file in the older separate frame ("PJITTD1", an 8-byte hash,
  // the 64-byte payload), and a well-framed payload of the wrong size, are
  // corrupt: each is counted, deleted and looked up as never tuned.
  std::vector<uint8_t> Old(80, 0);
  std::memcpy(Old.data(), "PJITTD1", 8);
  const std::vector<uint8_t> Frames[] = {
      Old, fleet::encodeEntry(std::vector<uint8_t>(63, 1), {})};
  uint64_t Corrupt = 0;
  for (const std::vector<uint8_t> &F : Frames) {
    ASSERT_TRUE(fs::writeFile(Path, F));
    EXPECT_FALSE(Fresh.lookupTuningDecision(0x7e).has_value());
    EXPECT_EQ(Fresh.stats().CorruptPersistentEntries, ++Corrupt);
    EXPECT_FALSE(fs::exists(Path));
  }
}

//===----------------------------------------------------------------------===//
// Frame mutants: the verdict of the public lookup path on seeded mutants of
// one framed code entry, pinned by tests/golden/cache_frame_mutants.txt.
//===----------------------------------------------------------------------===//

constexpr uint64_t FrameKey = 0x4d;
constexpr uint64_t FrameFingerprint = 0x0123456789abcdefULL;
constexpr unsigned GoldenFrameMutants = 1200;

uint64_t loadU64(const std::vector<uint8_t> &B, size_t Off) {
  uint64_t V;
  std::memcpy(&V, B.data() + Off, sizeof(V));
  return V;
}

void storeU64(std::vector<uint8_t> &B, size_t Off, uint64_t V) {
  std::memcpy(B.data() + Off, &V, sizeof(V));
}

const char *const HeaderMutationKinds[] = {
    "magic", "size", "hits", "fingerprint", "tier", "resize", "payload"};

/// Mutates one header field of \p Frame (48-byte header: magic, size,
/// integrity hash, hits, fingerprint, tier word), or the payload with its
/// size field kept consistent, then recomputes the integrity hash over the
/// payload, the tier byte and the fingerprint, so the mutant gets past the
/// hash to the size and tier checks or is accepted outright.
void mutateHeader(std::vector<uint8_t> &Frame, unsigned Kind, Rng &R) {
  const size_t Header = 48;
  auto lyingWord = [&](uint64_t V) -> uint64_t {
    switch (R.below(5)) {
    case 0:
      return V + 1;
    case 1:
      return V - 1;
    case 2:
      return 0;
    case 3:
      return ~uint64_t(0);
    default:
      return R.next();
    }
  };
  switch (Kind) {
  case 0: // magic
    Frame[R.below(8)] ^= static_cast<uint8_t>(1u << R.below(8));
    break;
  case 1: // size
    storeU64(Frame, 8, lyingWord(loadU64(Frame, 8)));
    break;
  case 2: // hit count
    storeU64(Frame, 24, R.next());
    break;
  case 3: // fingerprint
    storeU64(Frame, 32, lyingWord(loadU64(Frame, 32)));
    break;
  case 4: { // tier word
    const uint64_t Tiers[] = {0, 1, 2, 0x100, ~uint64_t(0)};
    storeU64(Frame, 40, Tiers[R.below(5)]);
    break;
  }
  case 5: { // payload length, size field kept consistent
    size_t Payload = Frame.size() - Header;
    Frame.resize(Header + (R.below(2) ? R.below(static_cast<uint32_t>(Payload))
                                      : Payload + 1 + R.below(64)),
                 0x5c);
    storeU64(Frame, 8, Frame.size() - Header);
    break;
  }
  default: // payload byte
    Frame[Header + R.below(static_cast<uint32_t>(Frame.size() - Header))] ^=
        static_cast<uint8_t>(1u << R.below(8));
    break;
  }
  FNV1aHash H;
  H.updateBytes(Frame.data() + Header, Frame.size() - Header);
  H.update(Frame[40]);
  H.update(loadU64(Frame, 32));
  storeU64(Frame, 16, H.digest());
}

TEST(CacheFrameTest, MutantVerdictsMatchGolden) {
  TempDir Tmp;
  // Memory level off: every lookup reads the mutant back from disk.
  CodeCache C(false, true, Tmp.Path);
  C.insert(FrameKey, objBlob(), CodeTier::Tier0, FrameFingerprint);
  const std::string Path = onlyCacheFile(Tmp.Path);
  const std::optional<std::vector<uint8_t>> Base = fs::readFile(Path);
  ASSERT_TRUE(Base.has_value());
  ASSERT_GE(Base->size(), 48u);

  // Even mutants are raw byte mutants of the whole frame; odd ones edit a
  // header field and re-hash. Each verdict is what lookupEntry returns for
  // the mutant: a miss with the corrupt entries it counted (and whether the
  // file is gone), or a hit with tier, fingerprint and payload digest.
  expectMutantVerdictsMatchGolden(
      PROTEUS_FRAME_MUTANTS, GoldenFrameMutants, [&](unsigned I) {
        Rng R(0x9e3779b9ull * (I + 1));
        std::vector<uint8_t> Bytes = *Base;
        const char *Kind;
        if (I % 2 == 0) {
          unsigned K = R.below(std::size(ByteMutationKinds));
          mutateBytes(Bytes, K, R);
          Kind = ByteMutationKinds[K];
        } else {
          unsigned K = R.below(std::size(HeaderMutationKinds));
          mutateHeader(Bytes, K, R);
          Kind = HeaderMutationKinds[K];
        }
        EXPECT_TRUE(fs::writeFile(Path, Bytes)) << "mutant " << I;
        uint64_t CorruptBefore = C.stats().CorruptPersistentEntries;
        std::optional<CachedCode> Hit = C.lookupEntry(FrameKey);
        uint64_t Corrupt = C.stats().CorruptPersistentEntries - CorruptBefore;
        std::string Verdict;
        if (Hit) {
          FNV1aHash H;
          H.update(Hit->Object);
          Verdict = formatString(
              "hit tier=%u fp=%s payload=%s",
              static_cast<unsigned>(Hit->Tier),
              hashToHex(Hit->PipelineFingerprint).c_str(),
              hashToHex(H.digest()).c_str());
        } else {
          Verdict = formatString("miss corrupt=%llu %s",
                                 static_cast<unsigned long long>(Corrupt),
                                 fs::exists(Path) ? "kept" : "deleted");
        }
        return MutantVerdict{formatString("%u %s %s %s", I,
                                          I % 2 ? "header" : "raw", Kind,
                                          Verdict.c_str()),
                             Hit.has_value()};
      });
}

} // namespace
