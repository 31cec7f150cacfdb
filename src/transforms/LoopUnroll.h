//===- LoopUnroll.h - full loop unrolling -----------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full unrolling of loops whose trip count becomes a compile-time constant.
/// Ahead of time most kernel loop bounds are arguments, so this pass does
/// nothing; after Proteus folds the bound argument to its runtime value the
/// trip count materializes and the loop unrolls — one of the two cascading
/// effects (with dead-branch elimination) behind the paper's RCF results.
/// The same unrolling is also the mechanism by which RCF can *hurt* (SW4CK
/// kernel4): unrolled bodies lengthen live ranges and increase register
/// pressure.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TRANSFORMS_LOOPUNROLL_H
#define PROTEUS_TRANSFORMS_LOOPUNROLL_H

#include "transforms/Pass.h"

#include <cstdint>

namespace proteus {

/// Unroll cost model knobs.
struct UnrollOptions {
  /// Never unroll loops with more iterations than this.
  uint64_t MaxTripCount = 64;
  /// Skip unrolling when (trip count x loop size) exceeds this many
  /// instructions.
  uint64_t MaxExpandedInstructions = 4096;

  bool operator==(const UnrollOptions &) const = default;
};

class LoopUnrollPass : public FunctionPass {
public:
  explicit LoopUnrollPass(UnrollOptions Opts = UnrollOptions())
      : Opts(Opts) {}

  std::string name() const override { return "loop-unroll"; }
  std::string options() const override {
    return "max-trip=" + std::to_string(Opts.MaxTripCount) +
           ",max-expanded=" + std::to_string(Opts.MaxExpandedInstructions);
  }
  bool run(pir::Function &F) override;

private:
  UnrollOptions Opts;
};

} // namespace proteus

#endif // PROTEUS_TRANSFORMS_LOOPUNROLL_H
