//===- O3Pipeline.h - the aggressive optimization pipeline ------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the "aggressive O3 optimization pipeline" (paper section 3.3)
/// used both by AOT device compilation and by the JIT runtime after
/// specialization: inline -> mem2reg -> scalar cleanup -> unroll -> cleanup.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TRANSFORMS_O3PIPELINE_H
#define PROTEUS_TRANSFORMS_O3PIPELINE_H

#include "transforms/LoopUnroll.h"
#include "transforms/Pass.h"

namespace proteus {

/// Which pipeline to build. Full is the aggressive fixpoint pipeline; Fast
/// is the Tier-0 baseline-compiler preset: inline (a codegen precondition —
/// the backend requires all calls inlined), mem2reg, one InstCombine
/// constant-fold sweep, and DCE, run exactly once. Everything costly
/// (SimplifyCFG/CSE/LICM/unroll and fixpoint iteration) is deferred to the
/// background Tier-1 recompile.
enum class O3Preset { Full, Fast };

/// Pipeline configuration. Defaults correspond to the full O3 behaviour.
/// The unroll knobs, the preset and EnableLICM are the variant axes the
/// kernel variant manager (jit/AutoTuner.h) races against each other: LICM
/// and unrolling both trade register pressure for instruction count, so
/// whether they pay off depends on the kernel and the launch shape.
struct O3Options {
  UnrollOptions Unroll;
  O3Preset Preset = O3Preset::Full;
  /// Run loop-invariant code motion in the full pipeline. Hoisting
  /// lengthens live ranges; register-pressure-bound kernels can be faster
  /// without it.
  bool EnableLICM = true;
  /// Verify IR after every pass (slow; enabled by tests).
  bool VerifyEach = false;

  bool operator==(const O3Options &) const = default;
};

/// Returns a configured pass manager implementing the O3 pipeline.
std::unique_ptr<PassManager> buildO3Pipeline(const O3Options &Opts = {});

/// Runs O3 over one function. Convenience for the JIT runtime.
void runO3(pir::Function &F, const O3Options &Opts = {});

/// Runs O3 over every function in the module.
void runO3(pir::Module &M, const O3Options &Opts = {});

} // namespace proteus

#endif // PROTEUS_TRANSFORMS_O3PIPELINE_H
