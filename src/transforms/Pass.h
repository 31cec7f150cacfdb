//===- Pass.h - pass interfaces and pipeline manager ------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function-pass interface and a sequential pipeline manager. The JIT
/// runtime builds the "aggressive O3 pipeline" from these (see
/// O3Pipeline.h); tests run single passes in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TRANSFORMS_PASS_H
#define PROTEUS_TRANSFORMS_PASS_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pir {
class Function;
class Module;
} // namespace pir

namespace proteus {

/// A transformation over one function. Returns true if the IR changed.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;

  /// Stable pass name for pipeline descriptions and statistics.
  virtual std::string name() const = 0;

  /// The settings that change what run() does, spelled as a string. Two
  /// pipeline positions are the same pass when their name() and options()
  /// are both equal.
  virtual std::string options() const { return {}; }

  /// Runs on \p F; returns whether anything changed.
  virtual bool run(pir::Function &F) = 0;
};

/// Per-pass invocation statistics collected by the PassManager.
struct PassStatistics {
  std::string Name;
  unsigned Invocations = 0;
  unsigned ChangedInvocations = 0;
  /// Accumulated wall time across all invocations of this pass — the
  /// per-pass O3 attribution behind Figure 5/6's optimization bar.
  double Seconds = 0;
};

/// Runs a sequence of function passes over every function with a body,
/// optionally iterating the sequence to a fixpoint, and optionally
/// verifying the IR after each pass (used in tests). A position is skipped
/// when the same pass (equal name and options) has already run on the
/// current IR without changing it, and iteration stops once every distinct
/// pass has. This is exact as long as passes are deterministic and report
/// their changes truthfully, which VerifyEach checks.
class PassManager {
public:
  /// \p MaxIterations bounds fixpoint iteration to that many sweeps of
  /// the full sequence; 1 means run each pass exactly once.
  explicit PassManager(unsigned MaxIterations = 1)
      : MaxIterations(MaxIterations) {}

  void addPass(std::unique_ptr<FunctionPass> P) {
    Passes.push_back(std::move(P));
  }

  /// Aborts with the verifier message if a pass breaks the IR, or if a pass
  /// that reported no change altered the printed function (test mode).
  void setVerifyEach(bool V) { VerifyEach = V; }

  /// Observer invoked after every pass invocation with its name and wall
  /// time. The JIT runtime uses this to feed per-pass O3 timing into its
  /// metrics registry; tracing spans ("o3.<pass>") are emitted regardless.
  using TimingHook = std::function<void(const std::string &PassName,
                                        double Seconds)>;
  void setTimingHook(TimingHook Hook) { TimingHookFn = std::move(Hook); }

  /// Observer invoked after every pass invocation with the pass name and
  /// the function it just transformed. Unlike setVerifyEach (which aborts
  /// the process — test mode), this lets the JIT run verifyFunction after
  /// each pass recoverably and attribute any breakage to the offending
  /// pass by name (PROTEUS_VERIFY_EACH=1).
  using PostPassHook = std::function<void(const std::string &PassName,
                                          pir::Function &F)>;
  void setPostPassHook(PostPassHook Hook) { PostPassHookFn = std::move(Hook); }

  /// Runs the pipeline over all functions of \p M that have bodies.
  /// Returns true if anything changed.
  bool run(pir::Module &M);

  /// Runs the pipeline over a single function.
  bool run(pir::Function &F);

  const std::vector<PassStatistics> &statistics() const { return Stats; }

  unsigned maxIterations() const { return MaxIterations; }

  /// Removes the passes, in pipeline order, so a caller can rebuild the
  /// pipeline from them (tests re-wrap each position).
  std::vector<std::unique_ptr<FunctionPass>> takePasses() {
    Stats.clear();
    SpanNames.clear();
    SamePassAs.clear();
    return std::move(Passes);
  }

private:
  /// Runs pass \p I once on \p F with its bookkeeping; returns whether
  /// the pass changed the IR.
  bool runPass(size_t I, pir::Function &F);

  std::vector<std::unique_ptr<FunctionPass>> Passes;
  std::vector<PassStatistics> Stats;
  /// Interned "o3.<pass>" span names, built lazily alongside Stats.
  std::vector<const char *> SpanNames;
  /// Per position, the first position holding the same pass; built
  /// alongside Stats.
  std::vector<size_t> SamePassAs;
  TimingHook TimingHookFn;
  PostPassHook PostPassHookFn;
  unsigned MaxIterations;
  bool VerifyEach = false;
};

} // namespace proteus

#endif // PROTEUS_TRANSFORMS_PASS_H
