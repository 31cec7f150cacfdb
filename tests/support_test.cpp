//===- support_test.cpp - support-library tests ----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Direct coverage of the foundations everything else relies on: FNV-1a
// hashing (stability across runs is what keeps persistent cache file names
// valid), the bounds-checked binary streams, string helpers, and the
// filesystem utilities behind the persistent cache.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"
#include "support/BinaryStream.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

using namespace proteus;

namespace {

TEST(HashingTest, KnownFnv1aVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(hashString(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hashString("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hashString("foobar"), 0x85944171f73967e8ull);
}

TEST(HashingTest, IncrementalMatchesOneShot) {
  FNV1aHash H;
  H.update(std::string_view("hello "));
  H.update(std::string_view("world"));
  EXPECT_EQ(H.digest(), hashString("hello world"));
}

TEST(HashingTest, TypedUpdatesAreOrderSensitive) {
  FNV1aHash A, B;
  A.update(uint64_t(1));
  A.update(uint64_t(2));
  B.update(uint64_t(2));
  B.update(uint64_t(1));
  EXPECT_NE(A.digest(), B.digest());
}

TEST(HashingTest, HexRendering) {
  EXPECT_EQ(hashToHex(0), "0000000000000000");
  EXPECT_EQ(hashToHex(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(hashToHex(~0ull), "ffffffffffffffff");
}

TEST(BinaryStreamTest, RoundTripAllTypes) {
  ByteWriter W;
  W.writeU8(0xAB);
  W.writeU32(0x12345678);
  W.writeU64(0x1122334455667788ull);
  W.writeF64(-3.25);
  W.writeString("proteus");
  W.writeBytes({9, 8, 7});

  ByteReader R(W.data());
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU32(), 0x12345678u);
  EXPECT_EQ(R.readU64(), 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(R.readF64(), -3.25);
  EXPECT_EQ(R.readString(), "proteus");
  EXPECT_EQ(R.readBytes(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinaryStreamTest, TruncationLatchesError) {
  ByteWriter W;
  W.writeU32(42);
  std::vector<uint8_t> Short(W.data().begin(), W.data().begin() + 2);
  ByteReader R(Short);
  EXPECT_EQ(R.readU32(), 0u);
  EXPECT_FALSE(R.ok());
  // Every subsequent read stays failed and yields zeros.
  EXPECT_EQ(R.readU64(), 0u);
  EXPECT_EQ(R.readString(), "");
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(BinaryStreamTest, HugeLengthPrefixIsRejected) {
  ByteWriter W;
  W.writeU32(0xFFFFFFFF); // claims a 4GiB string follows
  ByteReader R(W.data());
  EXPECT_EQ(R.readString(), "");
  EXPECT_FALSE(R.ok());
}

TEST(StringUtilsTest, TrimAndSplit) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  auto Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringUtilsTest, FormatDoubleRoundTrips) {
  for (double V : {0.0, -0.0, 1.0 / 3.0, 1e-300, 3.141592653589793,
                   1.0000000000000002, -2.5e17}) {
    std::string S = formatDouble(V);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
  }
  // Integral values must still lex as floating point.
  EXPECT_NE(formatDouble(4.0).find('.'), std::string::npos);
}

TEST(StringUtilsTest, ByteSizeFormatting) {
  EXPECT_EQ(formatByteSize(512), "512B");
  EXPECT_EQ(formatByteSize(6 * 1024 + 512), "6.5KB");
  EXPECT_EQ(formatByteSize(3 * 1024 * 1024), "3.0MB");
}

TEST(FileSystemTest, ReadWriteListRemove) {
  std::string Dir = fs::makeTempDirectory("proteus-fs-test");
  std::vector<uint8_t> Data = {1, 2, 3, 4, 5};
  std::string Path = Dir + "/blob.bin";
  EXPECT_TRUE(fs::writeFile(Path, Data));
  EXPECT_TRUE(fs::exists(Path));
  auto Back = fs::readFile(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Data);
  auto Names = fs::listFiles(Dir);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "blob.bin");
  auto Infos = fs::listFilesWithInfo(Dir);
  ASSERT_EQ(Infos.size(), 1u);
  EXPECT_EQ(Infos[0].Bytes, Data.size());
  EXPECT_TRUE(fs::removeFile(Path));
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_FALSE(fs::readFile(Path).has_value());
  fs::removeTree(Dir);
}

TEST(FileSystemTest, ReadFileReturnsEmptyLargeAndMissingFiles) {
  std::string Dir = fs::makeTempDirectory("proteus-fs-read");
  std::string Empty = Dir + "/empty.bin";
  ASSERT_TRUE(fs::writeFile(Empty, {}));
  auto E = fs::readFile(Empty);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->empty());
  // 256 KiB: larger than any single stdio buffer.
  std::vector<uint8_t> Big(256 * 1024);
  for (size_t I = 0; I != Big.size(); ++I)
    Big[I] = static_cast<uint8_t>(I * 131 + (I >> 11));
  std::string BigPath = Dir + "/big.bin";
  ASSERT_TRUE(fs::writeFile(BigPath, Big));
  auto B = fs::readFile(BigPath);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, Big);
  EXPECT_FALSE(fs::readFile(Dir + "/missing.bin").has_value());
  fs::removeTree(Dir);
}

TEST(FileSystemTest, ReadFileHeadStopsAtTheBoundOrTheEnd) {
  std::string Dir = fs::makeTempDirectory("proteus-fs-head");
  std::vector<uint8_t> Data(1000);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 7);
  std::string Path = Dir + "/blob.bin";
  ASSERT_TRUE(fs::writeFile(Path, Data));
  auto Head = fs::readFileHead(Path, 48);
  ASSERT_TRUE(Head.has_value());
  EXPECT_EQ(*Head, std::vector<uint8_t>(Data.begin(), Data.begin() + 48));
  auto Whole = fs::readFileHead(Path, 4096); // shorter file: all of it
  ASSERT_TRUE(Whole.has_value());
  EXPECT_EQ(*Whole, Data);
  EXPECT_FALSE(fs::readFileHead(Dir + "/missing.bin", 48).has_value());
  EXPECT_FALSE(fs::readFileHead(Dir, 48).has_value());
  fs::removeTree(Dir);
}

TEST(FileSystemTest, ReadFileOfADirectoryIsNullopt) {
  std::string Dir = fs::makeTempDirectory("proteus-fs-dir");
  ASSERT_TRUE(fs::createDirectories(Dir + "/sub"));
  EXPECT_FALSE(fs::readFile(Dir + "/sub").has_value());
  EXPECT_FALSE(fs::readFile(Dir).has_value());
  fs::removeTree(Dir);
}

TEST(FileSystemTest, TempDirectoriesAreUnique) {
  std::string A = fs::makeTempDirectory("proteus-uniq");
  std::string B = fs::makeTempDirectory("proteus-uniq");
  EXPECT_NE(A, B);
  fs::removeTree(A);
  fs::removeTree(B);
}

TEST(FileSystemTest, UniqueNameTokensNeverRepeat) {
  std::set<std::string> Seen;
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(Seen.insert(fs::uniqueNameToken()).second);
}

TEST(FileSystemTest, AtomicWriteRoundTripsAndLeavesNoTempFiles) {
  std::string Dir = fs::makeTempDirectory("proteus-atomic");
  std::string Path = Dir + "/obj.bin";
  std::vector<uint8_t> Data = {10, 20, 30, 40};
  EXPECT_TRUE(fs::writeFileAtomic(Path, Data));
  auto Back = fs::readFile(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Data);
  // Overwrite is atomic too.
  std::vector<uint8_t> Data2 = {5, 6};
  EXPECT_TRUE(fs::writeFileAtomic(Path, Data2));
  EXPECT_EQ(*fs::readFile(Path), Data2);
  // The write-to-temp + rename protocol must not leak .tmp-* files.
  auto Names = fs::listFiles(Dir);
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "obj.bin");
  fs::removeTree(Dir);
}

// --- Specialization-hash determinism ----------------------------------------
//
// The persistent cache's file names are cache-jit-<hash>.o, so the key hash
// must be stable across processes, runs, AND refactors of the JIT runtime:
// a changed hash silently invalidates every user's warm cache. These golden
// values pin the exact hash function (FNV-1a 64 over the key fields in
// declaration order, integers little-endian); they were computed by an
// independent implementation and must never change.

TEST(SpecializationHashGoldenTest, HashesMatchPinnedValues) {
  SpecializationKey K1;
  K1.ModuleId = 0x1234;
  K1.KernelSymbol = "daxpy";
  K1.Arch = GpuArch::AmdGcnSim;
  K1.FoldedArgs = {{0, 100}, {3, 7}};
  K1.LaunchBoundsThreads = 256;
  EXPECT_EQ(computeSpecializationHash(K1), 0xed3ee630005c8764ull);

  SpecializationKey K2;
  K2.ModuleId = 0xfeedface;
  K2.KernelSymbol = "rk";
  K2.Arch = GpuArch::NvPtxSim;
  K2.FoldedArgs = {{3, 0x3FF8000000000000ull}, {4, 5}}; // sf=1.5, si=5
  K2.LaunchBoundsThreads = 64;
  EXPECT_EQ(computeSpecializationHash(K2), 0xb7885ac14f47cbb1ull);

  SpecializationKey Empty;
  Empty.ModuleId = 0;
  Empty.KernelSymbol = "";
  Empty.Arch = GpuArch::AmdGcnSim;
  EXPECT_EQ(computeSpecializationHash(Empty), 0x98b2b1418e80a50full);
}

TEST(SpecializationHashGoldenTest, PersistentFileNameIsPinned) {
  // The exact on-disk name for K1 above: a refactor that changes this
  // breaks warm-cache reuse for existing deployments.
  EXPECT_EQ("cache-jit-" + hashToHex(0xed3ee630005c8764ull) + ".o",
            "cache-jit-ed3ee630005c8764.o");
}

TEST(SpecializationHashGoldenTest, StableAcrossRepeatedComputation) {
  SpecializationKey K;
  K.ModuleId = 0xabcdef0123456789ull;
  K.KernelSymbol = "kernel_with_a_longer_symbol_name";
  K.Arch = GpuArch::NvPtxSim;
  for (uint32_t I = 0; I != 16; ++I)
    K.FoldedArgs.push_back({I, I * 0x9e3779b97f4a7c15ull});
  K.LaunchBoundsThreads = 1024;
  uint64_t First = computeSpecializationHash(K);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(computeSpecializationHash(K), First);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    EXPECT_TRUE(Pool.enqueue([&Sum, I] { Sum += I; }));
  Pool.waitIdle();
  EXPECT_EQ(Sum.load(), 5050);
  EXPECT_EQ(Pool.tasksEnqueued(), 100u);
  EXPECT_EQ(Pool.tasksCompleted(), 100u);
}

TEST(ThreadPoolTest, ZeroWorkersClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 1u);
  std::atomic<bool> Ran{false};
  Pool.enqueue([&Ran] { Ran = true; });
  Pool.waitIdle();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPoolTest, WaitIdleCoversTransitivelyEnqueuedTasks) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.enqueue([&] {
    ++Count;
    Pool.enqueue([&] { ++Count; });
  });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 2);
}

TEST(ThreadPoolTest, ShutdownDrainsQueueAndRejectsNewWork) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 50; ++I)
      Pool.enqueue([&Count] { ++Count; });
    Pool.shutdown();
    EXPECT_EQ(Count.load(), 50) << "shutdown must drain, not drop";
    EXPECT_FALSE(Pool.enqueue([&Count] { ++Count; }))
        << "enqueue after shutdown must be rejected";
    Pool.shutdown(); // idempotent
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPoolTest, ConcurrentProducers) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  std::vector<std::thread> Producers;
  for (int T = 0; T != 8; ++T)
    Producers.emplace_back([&] {
      for (int I = 0; I != 100; ++I)
        Pool.enqueue([&Count] { ++Count; });
    });
  for (auto &P : Producers)
    P.join();
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 800);
}

} // namespace
