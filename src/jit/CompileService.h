//===- CompileService.h - the JIT's compile-path protocol -------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How a specialization the launch path misses becomes an object: the one
/// place that decides which cached object may serve a request, joins a
/// compile already in flight, runs a new compile inline on the launching
/// thread or promotes a covered launch's rung on the worker pool, claims
/// the compile fleet-wide, publishes the result into the code cache and
/// schedules the Final promotion of a Tier-0 object.
///
/// The service does not know how to compile. JitRuntime hands it a
/// CompileRequest whose Bind callback produces a compile body for a tier;
/// the service decides whether, when and where that body runs.
///
/// In-flight table: (specialization hash, tier) -> shared future of the
/// outcome. Launch-path compiles and promotions live in the same table;
/// a launch joins only a compile of the tier it asked for. The table and
/// the cache are consulted under one lock, and a compile publishes into the
/// cache before it leaves the table, so no request can miss both.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_COMPILESERVICE_H
#define PROTEUS_JIT_COMPILESERVICE_H

#include "gpu/Runtime.h"
#include "jit/CodeCache.h"
#include "support/ThreadPool.h"

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace proteus {

/// Fingerprint of the pipeline composition that produces \p Tier objects.
/// Stored in every cache entry the runtime writes; an entry whose recorded
/// fingerprint does not match the current value for its tier is treated as
/// a miss (stale pipeline) instead of being served. \p SymbolicGlobals
/// distinguishes multi-device objects (global references left as load-time
/// relocations) from single-device objects (addresses baked into the IR):
/// an object of one linkage mode must never be served in the other. It is
/// set only for a kernel whose call closure references a device global;
/// any other kernel compiles to the same object in either mode.
uint64_t jitPipelineFingerprint(CodeTier Tier, bool SymbolicGlobals = false);

/// Result of one specialization compile, delivered to every waiter.
struct CompileOutcome {
  gpu::GpuError Err = gpu::GpuError::Success;
  std::string Message;
  std::vector<uint8_t> Object;
  /// The tier Object was built at: a request may be served a higher tier
  /// than it asked for (a Final entry serves a Tier-0 request).
  CodeTier Tier = CodeTier::Final;
};

/// A compile with its inputs bound; runs at most once.
using CompileBody = std::function<CompileOutcome()>;

/// One specialization a launch wants, and how to compile it.
struct CompileRequest {
  uint64_t Hash = 0;
  /// The linkage bit of the request's fingerprints (jitPipelineFingerprint).
  bool SymbolicGlobals = false;
  /// Binds the compile at a tier. Runs on the thread that claims the
  /// compile: the launching thread, or the thread that finished a Tier-0
  /// compile and schedules its Final promotion. Returns null to fail the
  /// request with the outcome it stored in its second argument, or to
  /// decline a promotion.
  std::function<CompileBody(CodeTier, CompileOutcome &)> Bind;
  /// Installs a finished promotion's outcome (the hot-swap). Runs on a
  /// worker before the promotion leaves the in-flight table.
  std::function<void(const CompileOutcome &)> Promoted;
};

struct JitStatHandles; // jit/JitRuntime.h

class CompileService {
public:
  /// \p Promotions creates the pool of \p Workers threads that runs
  /// background promotions; without it no launch may be covered or served
  /// a Tier-0 object. The protocol's counters and timers are updated through
  /// \p Stat.
  CompileService(CodeCache &Cache, bool Promotions, unsigned Workers,
                 const JitStatHandles &Stat);

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// The cached entry for \p Hash if it may serve a request for \p Wanted:
  /// it came from the current pipeline for its own tier and the linkage bit
  /// \p SymbolicGlobals, and it is not a Tier-0 entry asked to serve a
  /// Final request.
  std::optional<CachedCode> servable(uint64_t Hash, CodeTier Wanted,
                                     bool SymbolicGlobals);

  /// The launch path's entry point: the outcome of \p Req at \p Wanted.
  /// Serves a servable cache entry; else, when the caller can \p Cover the
  /// launch (and then wants Final), promotes to Final unless that is in
  /// flight and returns an invalid future; else joins a compile of
  /// \p Wanted in flight or runs one inline. Serving or compiling Tier-0
  /// schedules its promotion.
  std::shared_future<CompileOutcome> obtain(const CompileRequest &Req,
                                            CodeTier Wanted, bool Cover);

  /// Waits for \p F, accounting a blocking wait as launch-visible time.
  const CompileOutcome &wait(const std::shared_future<CompileOutcome> &F);

  /// Runs \p Body on the calling thread and publishes its object at \p Tier
  /// with the linkage bit \p SymbolicGlobals. With \p Claim, first claims
  /// \p Hash fleet-wide: a usable object another process published
  /// meanwhile is served instead of compiling.
  CompileOutcome compile(uint64_t Hash, CodeTier Tier, const CompileBody &Body,
                         bool Claim, bool SymbolicGlobals);

  /// Waits until every queued promotion, and each one it schedules, has
  /// finished.
  void drain();

private:
  using Promise = std::shared_ptr<std::promise<CompileOutcome>>;

  bool accepts(const CachedCode &CC, CodeTier Wanted,
               bool SymbolicGlobals) const;
  /// Adds (\p Hash, \p Tier) to the table; null if already there. Mutex held.
  Promise claimLocked(uint64_t Hash, CodeTier Tier);
  /// Claims and queues the Final promotion of \p Req unless one is in
  /// flight.
  void promote(const CompileRequest &Req);
  /// Binds the claimed compile (\p Req, \p Tier) and runs it: inline for a
  /// launch-path compile, on the pool for a \p Promotion, which the request's
  /// Promoted callback installs.
  void start(const CompileRequest &Req, CodeTier Tier, Promise P,
             bool Promotion);
  /// Delivers \p O to the waiters, then retires the table entry.
  void finish(uint64_t Hash, CodeTier Tier, std::promise<CompileOutcome> &P,
              CompileOutcome O);

  CodeCache &Cache;
  const JitStatHandles &Stat;

  std::mutex Mutex; // guards InFlight
  std::map<std::pair<uint64_t, CodeTier>,
           std::shared_future<CompileOutcome>>
      InFlight;

  /// Declared last so it is drained and joined (running every queued
  /// promotion to completion) before the table goes away.
  std::unique_ptr<ThreadPool> Pool;
};

} // namespace proteus

#endif // PROTEUS_JIT_COMPILESERVICE_H
