//===- ablation_cache_policy.cpp - cache eviction ablation --------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the section 3.4 cache-management extensions: under a memory
// limit that cannot hold every specialization, compare eviction policies on
// a skewed specialization workload (a few hot time-step values, a long tail
// of one-shot values — the shape an auto-tuner or time-stepping code
// produces). The runtime-informed LFU policy should retain the hot
// specializations and beat plain LRU on hit rate, supporting the paper's
// plan to "prioritize evicting less likely-to-execute specializations".
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "jit/CodeCache.h"

#include <cstdio>

using namespace proteus;
using namespace proteus::bench;

namespace {

struct PolicyOutcome {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

/// Simulates a launch stream over specializations with a skewed reuse
/// pattern: 4 hot specializations dominate; 64 cold ones appear once each,
/// interleaved.
PolicyOutcome runPolicy(fleet::EvictPolicy Policy) {
  CacheLimits L;
  L.MaxMemoryBytes = 8 * 4096; // room for 8 of the ~68 specializations
  L.Policy = Policy;
  CodeCache C(true, false, "", L);

  auto Access = [&](uint64_t Key) -> bool {
    if (C.lookup(Key))
      return true;
    C.insert(Key, std::vector<uint8_t>(4096,
                                       static_cast<uint8_t>(Key)));
    return false;
  };

  PolicyOutcome Out;
  uint64_t ColdKey = 1000;
  // Warm up the hot set.
  for (uint64_t Hot = 1; Hot <= 4; ++Hot)
    Access(Hot);
  for (int Round = 0; Round != 64; ++Round) {
    for (uint64_t Hot = 1; Hot <= 4; ++Hot)
      Access(Hot) ? ++Out.Hits : ++Out.Misses;
    // A burst of one-shot cold specializations larger than the cache
    // flushes recency; only execution frequency identifies the hot set.
    for (int Burst = 0; Burst != 10; ++Burst)
      Access(ColdKey++) ? ++Out.Hits : ++Out.Misses;
  }
  Out.Evictions = C.stats().MemoryEvictions;
  return Out;
}

} // namespace

int main() {
  std::printf("=== Ablation: cache eviction policy under a memory limit"
              " ===\n");
  std::printf("workload: 4 hot specializations + bursts of 10 one-shot cold ones,"
              " limit = 8 entries\n\n");
  std::printf("%-8s %10s %10s %12s %10s\n", "policy", "hits", "misses",
              "evictions", "hit rate");
  for (fleet::EvictPolicy P :
       {fleet::EvictPolicy::LRU, fleet::EvictPolicy::LFU}) {
    PolicyOutcome O = runPolicy(P);
    std::printf("%-8s %10llu %10llu %12llu %9.1f%%\n",
                P == fleet::EvictPolicy::LRU ? "LRU" : "LFU",
                static_cast<unsigned long long>(O.Hits),
                static_cast<unsigned long long>(O.Misses),
                static_cast<unsigned long long>(O.Evictions),
                100.0 * static_cast<double>(O.Hits) /
                    static_cast<double>(O.Hits + O.Misses));
  }
  std::printf("\n(every miss is a full JIT recompilation; the"
              " runtime-informed policy\n protects hot specializations from"
              " one-shot pollution)\n");
  return 0;
}
