//===- cache_eviction_test.cpp - section 3.4 cache management tests --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The paper's section 3.4 roadmap features: in-memory and persistent size
// limits with LRU eviction and the runtime-informed (LFU) policy.
//
//===----------------------------------------------------------------------===//

#include "fleet/LocalBackend.h"
#include "jit/CodeCache.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace proteus;

namespace {

struct TempDir {
  std::string Path;
  TempDir() : Path(fs::makeTempDirectory("proteus-evict")) {}
  ~TempDir() { fs::removeTree(Path); }
};

std::vector<uint8_t> blob(size_t N, uint8_t Fill) {
  return std::vector<uint8_t>(N, Fill);
}

TEST(CacheEvictionTest, UnlimitedByDefaultMatchingThePaper) {
  CodeCache C(true, false, "");
  for (uint64_t H = 0; H != 64; ++H)
    C.insert(H, blob(1024, static_cast<uint8_t>(H)));
  EXPECT_EQ(C.memoryEntries(), 64u);
  EXPECT_EQ(C.stats().MemoryEvictions, 0u);
}

TEST(CacheEvictionTest, MemoryLruEvictsOldestFirst) {
  CacheLimits L;
  L.MaxMemoryBytes = 4 * 1024;
  CodeCache C(true, false, "", L);
  for (uint64_t H = 1; H <= 4; ++H)
    C.insert(H, blob(1024, 1));
  EXPECT_EQ(C.memoryEntries(), 4u);
  // Touch entry 1 so entry 2 becomes the LRU victim.
  EXPECT_TRUE(C.lookup(1).has_value());
  C.insert(5, blob(1024, 5));
  EXPECT_GT(C.stats().MemoryEvictions, 0u);
  EXPECT_TRUE(C.lookup(1).has_value()) << "recently used must survive";
  EXPECT_FALSE(C.lookup(2).has_value()) << "LRU victim must be gone";
  EXPECT_LE(C.memoryBytes(), L.MaxMemoryBytes);
}

TEST(CacheEvictionTest, LfuPrefersRarelyExecutedSpecializations) {
  CacheLimits L;
  L.MaxMemoryBytes = 3 * 1024;
  L.Policy = fleet::EvictPolicy::LFU;
  CodeCache C(true, false, "", L);
  C.insert(10, blob(1024, 1)); // hot
  C.insert(20, blob(1024, 2)); // cold
  C.insert(30, blob(1024, 3)); // warm
  for (int I = 0; I != 5; ++I)
    C.lookup(10);
  C.lookup(30);
  // 20 was never executed again: the runtime-informed policy evicts it even
  // though 10 was used less recently than ... (order: 10 touched last).
  C.insert(40, blob(1024, 4));
  EXPECT_FALSE(C.lookup(20).has_value());
  EXPECT_TRUE(C.lookup(10).has_value());
  EXPECT_TRUE(C.lookup(30).has_value());
}

TEST(CacheEvictionTest, PersistentLimitRemovesOldestFiles) {
  TempDir Tmp;
  CacheLimits L;
  L.MaxPersistentBytes = 3 * 4096;
  CodeCache C(false, true, Tmp.Path, L);
  for (uint64_t H = 1; H <= 3; ++H) {
    C.insert(H, blob(4096, static_cast<uint8_t>(H)));
    // Distinct mtimes on filesystems with coarse timestamps.
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  EXPECT_LE(C.persistentBytes(), L.MaxPersistentBytes);
  C.insert(4, blob(4096, 4));
  EXPECT_LE(C.persistentBytes(), L.MaxPersistentBytes);
  EXPECT_GT(C.stats().PersistentEvictions, 0u);
  EXPECT_FALSE(C.lookup(1).has_value()) << "oldest file evicted";
  EXPECT_TRUE(C.lookup(4).has_value());
}

TEST(CacheEvictionTest, EvictedEntryIsRecompiledNotCorrupted) {
  CacheLimits L;
  L.MaxMemoryBytes = 2 * 1024;
  CodeCache C(true, false, "", L);
  C.insert(1, blob(1024, 1));
  C.insert(2, blob(1024, 2));
  C.insert(3, blob(1024, 3)); // evicts 1
  auto Hit = C.lookup(3);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ((*Hit)[0], 3);
  EXPECT_FALSE(C.lookup(1).has_value());
  // Re-inserting the evicted entry works (the JIT recompiles on miss).
  C.insert(1, blob(1024, 9));
  auto Again = C.lookup(1);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ((*Again)[0], 9);
}

TEST(CacheEvictionTest, PromotionPreservesHitCountForLfu) {
  // Regression: promoting an entry from the persistent level used to reset
  // its execution count, biasing the LFU policy against specializations
  // that round-tripped through disk (e.g. across a clearMemory "restart").
  TempDir Tmp;
  CacheLimits L;
  L.MaxMemoryBytes = 2 * 1024;
  L.Policy = fleet::EvictPolicy::LFU;
  CodeCache C(true, true, Tmp.Path, L);

  C.insert(1, blob(1024, 1));
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(C.lookup(1).has_value()); // hot: executed 5 times
  C.clearMemory(); // "process restart"; count written back to disk

  // Promote 1 back from the persistent level, then fill memory.
  EXPECT_TRUE(C.lookup(1).has_value());
  C.insert(2, blob(1024, 2)); // cold, never executed
  C.insert(3, blob(1024, 3)); // forces one LFU eviction

  // With the count preserved (1: 6 executions) the cold entry 2 must be
  // the victim; the buggy reset-to-zero behaviour evicted 1 instead.
  CodeCacheStats Before = C.stats();
  EXPECT_TRUE(C.lookup(1).has_value());
  CodeCacheStats After = C.stats();
  EXPECT_EQ(After.MemoryHits, Before.MemoryHits + 1)
      << "the hot promoted entry must still be in memory";
  EXPECT_EQ(After.PersistentHits, Before.PersistentHits);
  // 2 fell back to the persistent level (still correct, just slower).
  Before = C.stats();
  EXPECT_TRUE(C.lookup(2).has_value());
  After = C.stats();
  EXPECT_EQ(After.PersistentHits, Before.PersistentHits + 1)
      << "the cold entry must have been the LFU victim";
}

TEST(CacheEvictionTest, WriteBackPersistsExecutionCountsAcrossRestart) {
  // Execution counts survive clearMemory() (write-back into the entry
  // header), so a restarted process still sees runtime-informed
  // frequencies — verified end to end via LFU victim selection.
  TempDir Tmp;
  CacheLimits L;
  L.MaxMemoryBytes = 2 * 1024;
  L.Policy = fleet::EvictPolicy::LFU;
  {
    CodeCache C(true, true, Tmp.Path, L);
    C.insert(1, blob(1024, 1));
    C.insert(2, blob(1024, 2)); // evicts nothing: exactly at the limit
    for (int I = 0; I != 4; ++I)
      C.lookup(1);
    C.clearMemory();
  }
  // New cache instance ("new process"), same disk.
  CodeCache C(true, true, Tmp.Path, L);
  EXPECT_TRUE(C.lookup(1).has_value()); // promoted with count 4+1
  EXPECT_TRUE(C.lookup(2).has_value()); // promoted with count 0+1
  C.insert(3, blob(1024, 3));           // LFU eviction
  CodeCacheStats Before = C.stats();
  EXPECT_TRUE(C.lookup(1).has_value());
  EXPECT_EQ(C.stats().MemoryHits, Before.MemoryHits + 1)
      << "frequently executed entry must survive the restart";
}

TEST(CacheEvictionTest, StatsSnapshotIsStableCopy) {
  CodeCache C(true, false, "");
  C.insert(1, blob(64, 1));
  C.lookup(1);
  C.lookup(2);
  CodeCacheStats S = C.stats(); // snapshot by value
  EXPECT_EQ(S.MemoryHits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  // Further cache activity must not mutate the snapshot.
  for (int I = 0; I != 10; ++I)
    C.lookup(1);
  EXPECT_EQ(S.MemoryHits, 1u);
  EXPECT_EQ(C.stats().MemoryHits, 11u);
}

TEST(CacheEvictionTest, ConcurrentMixedOperationsAreSafe) {
  // Thread-safety smoke for the cache itself (run under TSan by
  // tools/ci_tsan.sh): concurrent inserts, lookups, stats snapshots and
  // clears must neither crash nor corrupt counters.
  TempDir Tmp;
  CacheLimits L;
  L.MaxMemoryBytes = 8 * 1024;
  L.Policy = fleet::EvictPolicy::LFU;
  CodeCache C(true, true, Tmp.Path, L);
  constexpr unsigned Threads = 8, Iters = 200;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&C, T] {
      for (unsigned I = 0; I != Iters; ++I) {
        uint64_t H = (T * 13 + I) % 24;
        if (I % 3 == 0)
          C.insert(H, blob(512, static_cast<uint8_t>(H)));
        else
          C.lookup(H);
        if (I % 17 == 0)
          (void)C.stats();
        if (T == 0 && I % 97 == 0)
          C.clearMemory();
      }
    });
  for (std::thread &T : Ts)
    T.join();
  // Per thread: 67 of the 200 iterations insert (I % 3 == 0), 133 look up.
  CodeCacheStats S = C.stats();
  EXPECT_EQ(S.MemoryHits + S.PersistentHits + S.Misses,
            uint64_t(Threads) * 133)
      << "every lookup must be accounted exactly once";
  // Every surviving lookup result must round-trip correctly.
  for (uint64_t H = 0; H != 24; ++H)
    if (auto Hit = C.lookup(H)) {
      ASSERT_EQ(Hit->size(), 512u);
      EXPECT_EQ((*Hit)[0], static_cast<uint8_t>(H));
    }
}

TEST(CacheEvictionTest, TuningDecisionsCountTowardTheByteBudget) {
  // Regression for the unbounded-growth bug: cache-tune-<hex> files used to
  // bypass the persistent size accounting entirely, so a "size-limited"
  // cache grew without bound once the autotuner was on. Under the persistent
  // limit they are budgeted and evictable like code entries.
  TempDir Tmp;
  CacheLimits L;
  L.MaxPersistentBytes = 2048;
  CodeCache C(false, true, Tmp.Path, L);
  TuningDecision D;
  D.BlockX = 128;
  for (uint64_t Key = 1; Key <= 60; ++Key) {
    C.storeTuningDecision(Key, D);
    // Coarse-timestamp filesystems need distinct mtimes for eviction order.
    if (Key % 10 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(12));
  }
  EXPECT_LE(C.persistentBytes(), L.MaxPersistentBytes)
      << "tune files must not grow the cache past its budget";
  EXPECT_GT(C.stats().PersistentEvictions, 0u);
  // Recent decisions survive; evicted ones are simply re-tuned (a miss).
  EXPECT_TRUE(C.lookupTuningDecision(60).has_value());
}

TEST(CacheEvictionTest, BudgetCoversCodeAndTuneTogether) {
  TempDir Tmp;
  CacheLimits L;
  L.MaxPersistentBytes = 8 * 1024;
  CodeCache C(false, true, Tmp.Path, L);
  TuningDecision D;
  for (uint64_t K = 1; K <= 8; ++K) {
    C.insert(K, blob(1536, static_cast<uint8_t>(K)));
    C.storeTuningDecision(K, D);
  }
  EXPECT_LE(C.persistentBytes(), L.MaxPersistentBytes);
  EXPECT_GT(C.stats().PersistentEvictions, 0u);
}

TEST(CacheEvictionTest, MultiProcessContentionUnderTightBudgetStaysSafe) {
  // K real processes hammer one sharded cache directory under a budget far
  // too small to hold every entry, so evictions race lookups and publishes
  // constantly. Invariants: no process ever reads a torn/corrupt entry
  // (unlink/rename semantics — an eviction yields a miss, never garbage),
  // and the final directory respects the budget.
  TempDir Tmp;
  constexpr unsigned Procs = 4, Iters = 60, Keys = 16;
  constexpr uint64_t Budget = 32 * 1024;
  constexpr size_t EntryBytes = 4096;

  std::vector<pid_t> Pids;
  for (unsigned P = 0; P != Procs; ++P) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      CacheLimits L;
      L.MaxPersistentBytes = Budget;
      L.Shards = 2;
      CodeCache C(false, true, Tmp.Path, L);
      unsigned Bad = 0;
      for (unsigned I = 0; I != Iters; ++I) {
        uint64_t Key = (I * Procs + P) % Keys;
        if (auto Hit = C.lookup(Key)) {
          if (*Hit != blob(EntryBytes, static_cast<uint8_t>(Key)))
            ++Bad; // corrupt read: the invariant this test exists for
        } else {
          C.insert(Key, blob(EntryBytes, static_cast<uint8_t>(Key)));
        }
      }
      if (C.stats().CorruptPersistentEntries != 0)
        ++Bad;
      _exit(Bad == 0 ? 0 : 1);
    }
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "a client observed a corrupt entry under eviction contention";
  }
  // One more publish triggers a final budget pass over whatever the races
  // left behind; the directory must settle at or below the budget.
  {
    CacheLimits L;
    L.MaxPersistentBytes = Budget;
    L.Shards = 2;
    CodeCache C(false, true, Tmp.Path, L);
    C.insert(999, blob(EntryBytes, 9));
    EXPECT_LE(C.persistentBytes(), Budget);
    EXPECT_EQ(C.stats().CorruptPersistentEntries, 0u);
  }
}

} // namespace
