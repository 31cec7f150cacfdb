//===- CompileService.cpp - the JIT's compile-path protocol ----------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/CompileService.h"

#include "jit/JitRuntime.h"
#include "support/Hashing.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace proteus;
using namespace proteus::gpu;

namespace {

/// Identifies the exact pipeline composition that produced a cached object.
/// Bump PipelineVersion whenever the Tier-0 or Tier-1 pipeline changes
/// shape, so persisted artifacts built by an older pipeline are recompiled
/// instead of served as current.
constexpr uint64_t PipelineVersion = 1;

} // namespace

uint64_t proteus::jitPipelineFingerprint(CodeTier Tier,
                                         bool SymbolicGlobals) {
  FNV1aHash H;
  H.update(PipelineVersion);
  H.update(static_cast<uint8_t>(Tier));
  // Linkage mode is part of the pipeline identity: an object with baked
  // global addresses is only valid on the device it was linked against.
  H.update(static_cast<uint8_t>(SymbolicGlobals));
  return H.digest();
}

CompileService::CompileService(CodeCache &Cache, bool Promotions,
                               unsigned Workers, const JitStatHandles &Stat)
    : Cache(Cache), Stat(Stat) {
  if (Promotions)
    Pool = std::make_unique<ThreadPool>(Workers ? Workers : 1u);
}

bool CompileService::accepts(const CachedCode &CC, CodeTier Wanted,
                             bool SymbolicGlobals) const {
  if (CC.PipelineFingerprint !=
      jitPipelineFingerprint(CC.Tier, SymbolicGlobals)) {
    // Produced by a different pipeline composition or linkage mode: the
    // requester recompiles, and the publish replaces the entry in place.
    trace::instant("jit.stale_pipeline_entry");
    return false;
  }
  // A Tier-0 baseline never substitutes for a Final artifact.
  return Wanted == CodeTier::Tier0 || CC.Tier == CodeTier::Final;
}

std::optional<CachedCode> CompileService::servable(uint64_t Hash,
                                                   CodeTier Wanted,
                                                   bool SymbolicGlobals) {
  std::optional<CachedCode> CC = Cache.lookupEntry(Hash);
  if (CC && !accepts(*CC, Wanted, SymbolicGlobals))
    CC.reset();
  return CC;
}

CompileService::Promise CompileService::claimLocked(uint64_t Hash,
                                                    CodeTier Tier) {
  auto P = std::make_shared<std::promise<CompileOutcome>>();
  if (!InFlight.emplace(std::make_pair(Hash, Tier), P->get_future().share())
           .second)
    return nullptr;
  return P;
}

std::shared_future<CompileOutcome>
CompileService::obtain(const CompileRequest &Req, CodeTier Wanted,
                       bool Cover) {
  Promise Owned, Promotion;
  std::shared_future<CompileOutcome> F;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (auto It = InFlight.find({Req.Hash, Wanted}); It != InFlight.end()) {
      // A covered launch never waits: with a cover, every compile of this
      // specialization is a promotion, which the cover adopts once done.
      if (Cover)
        return {};
      Stat.DedupedWaits->add();
      trace::instant("jit.deduped_wait");
      return It->second;
    }
    std::optional<CachedCode> CC;
    {
      trace::Span Sp("jit.cache_lookup", "jit");
      metrics::ScopedTimer T(*Stat.CacheLookupSeconds);
      CC = servable(Req.Hash, Wanted, Req.SymbolicGlobals);
    }
    if (CC) {
      // A served Tier-0 baseline (typically persisted by a run that exited
      // before promoting) is promoted in the background. Claiming under
      // the lookup's lock keeps a finished promotion from being redone.
      if (CC->Tier == CodeTier::Tier0)
        Promotion = claimLocked(Req.Hash, CodeTier::Final);
      std::promise<CompileOutcome> Hit;
      Hit.set_value({GpuError::Success, {}, std::move(CC->Object), CC->Tier});
      F = Hit.get_future().share();
    } else if (Cover) {
      Promotion = claimLocked(Req.Hash, CodeTier::Final);
    } else {
      Owned = claimLocked(Req.Hash, Wanted);
      F = InFlight.at({Req.Hash, Wanted});
    }
  }
  if (Promotion)
    start(Req, CodeTier::Final, std::move(Promotion), /*Promotion=*/true);
  if (Owned)
    start(Req, Wanted, std::move(Owned), /*Promotion=*/false);
  return F;
}

const CompileOutcome &
CompileService::wait(const std::shared_future<CompileOutcome> &F) {
  if (F.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    trace::Span Sp("jit.inflight_wait", "jit");
    metrics::ScopedTimer T(*Stat.LaunchBlockedSeconds);
    F.wait();
  }
  return F.get();
}

void CompileService::promote(const CompileRequest &Req) {
  Promise P;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    P = claimLocked(Req.Hash, CodeTier::Final);
  }
  if (P)
    start(Req, CodeTier::Final, std::move(P), /*Promotion=*/true);
}

void CompileService::start(const CompileRequest &Req, CodeTier Tier,
                           Promise P, bool Promotion) {
  CompileOutcome Failed;
  CompileBody Body = Req.Bind(Tier, Failed);
  if (!Body)
    return finish(Req.Hash, Tier, *P, std::move(Failed));
  auto Job = [this, Req, Tier, P, Promotion, Body = std::move(Body)] {
    CompileOutcome O =
        compile(Req.Hash, Tier, Body, /*Claim=*/true, Req.SymbolicGlobals);
    const bool Ok = O.Err == GpuError::Success;
    const bool Baseline = Ok && O.Tier == CodeTier::Tier0;
    // A failed promotion keeps the cover: correct, just not final.
    if (Ok && Promotion)
      Req.Promoted(O);
    finish(Req.Hash, Tier, *P, std::move(O));
    if (Baseline)
      promote(Req);
  };
  if (!Promotion) {
    // The launch-path compile runs on the launching thread: all of it is
    // launch-visible (with tiering on, only the Tier-0 cost).
    metrics::ScopedTimer T(*Stat.LaunchBlockedSeconds);
    return Job();
  }
  trace::instant("jit.promotion_schedule");
  if (!Pool->enqueue([this, Job = std::move(Job), QueueT = Timer()] {
        Stat.QueueWaitSeconds->addSeconds(QueueT.seconds());
        Job();
      }))
    finish(Req.Hash, Tier, *P,
           {GpuError::InvalidValue, "compile pool is shutting down", {}});
}

void CompileService::finish(uint64_t Hash, CodeTier Tier,
                            std::promise<CompileOutcome> &P,
                            CompileOutcome O) {
  // Waiters first: a successful compile already published into the cache,
  // so a request that no longer finds the table entry finds the object.
  P.set_value(std::move(O));
  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase({Hash, Tier});
}

CompileOutcome CompileService::compile(uint64_t Hash, CodeTier Tier,
                                       const CompileBody &Body, bool Claim,
                                       bool SymbolicGlobals) {
  // Fleet-wide compile dedup: claim the specialization across every process
  // sharing the cache (lock file locally, Acquire RPC against the shared
  // cache service). Exactly one claimant compiles; the rest wait for its
  // publish and serve that object instead of burning a redundant compile.
  struct ClaimGuard {
    CodeCache &C;
    uint64_t Hash;
    bool Held = false;
    ~ClaimGuard() {
      if (Held)
        C.endCompile(Hash);
    }
  } Guard{Cache, Hash};
  if (Claim) {
    std::optional<CachedCode> Published;
    if (Cache.beginCompile(Hash) == fleet::CompileClaim::Owner) {
      Guard.Held = true;
      // Double-checked claim: another process may have published between
      // this caller's miss and the claim.
      Published = Cache.lookupEntry(Hash);
    } else {
      Stat.FleetDedupWaits->add();
      trace::instant("jit.fleet_wait", "jit");
      Published = Cache.waitRemoteCompile(Hash);
      // No publish: the claim was inherited from a dead owner or the wait
      // timed out — either way this caller compiles and must release.
      Guard.Held = !Published;
    }
    // An unusable entry (stale pipeline, insufficient tier) is compiled
    // over locally — by a waiter unclaimed, which the atomic publish
    // tolerates.
    if (Published && accepts(*Published, Tier, SymbolicGlobals)) {
      Stat.FleetServedCompiles->add();
      trace::instant("jit.fleet_served", "jit");
      return {GpuError::Success, {}, std::move(Published->Object),
              Published->Tier};
    }
  }
  CompileOutcome O = Body();
  O.Tier = Tier;
  // The tier tag and fingerprint travel with the entry (including its
  // persisted form), so a Tier-0 baseline is never mistaken for a final
  // artifact, nor a baked-address object served in symbolic-globals mode.
  if (O.Err == GpuError::Success)
    Cache.insert(Hash, O.Object, Tier,
                 jitPipelineFingerprint(Tier, SymbolicGlobals));
  return O;
}

void CompileService::drain() {
  if (Pool)
    Pool->waitIdle();
}
