//===- CompilationPolicy.h - bottleneck-aware JIT policy --------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer between the static analyses and the JIT: it holds the
/// per-(kernel, arch) roofline verdicts produced during compilation (or on
/// demand from artifact bitcode) and the pruning rules the variant manager
/// consults before racing a tuning axis. The rules encode where each axis
/// can possibly pay off:
///
///   * MemoryBound — the bandwidth ceiling binds. None of the compile-side
///     axes reduce bytes moved (and in the simulator's occupancy model the
///     block shape does not change waves-in-flight for a fixed launch), so
///     nothing beyond the recorded default is worth racing.
///   * ComputeBound — pipeline aggressiveness (preset, LICM, unroll) is
///     the lever; block reshapes are not.
///   * RegPressureBound — the launch-bounds budget sweep (block sizes) plus
///     pressure-relevant pipeline knobs race; unrolling, which only adds
///     pressure, is pruned.
///   * LatencyBound — no ceiling clearly binds; race everything.
///
/// Enabled by PROTEUS_POLICY=on; with the policy off the tuner races every
/// axis.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_COMPILATIONPOLICY_H
#define PROTEUS_JIT_COMPILATIONPOLICY_H

#include "analysis/Roofline.h"
#include "codegen/Target.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace proteus {

/// The independent dimensions of the variant manager's search space.
enum class VariantAxis {
  BlockSize,      ///< block-geometry / launch-bounds budget sweep
  PipelinePreset, ///< O3 preset escalation (o3-fast)
  Licm,           ///< LICM on/off
  Unroll,         ///< unroll aggressiveness
};

/// One kernel's classification on one architecture.
struct PolicyVerdict {
  pir::analysis::BottleneckClass Class =
      pir::analysis::BottleneckClass::LatencyBound;
  double ArithmeticIntensity = 0;
  double RidgeFlopsPerByte = 0;
};

/// Thread-safe store of verdicts + the pruning rules. One instance lives on
/// the JitRuntime (when PROTEUS_POLICY=on) and is shared with the variant
/// manager.
class CompilationPolicy {
public:
  /// Records (or replaces) the verdict for \p Symbol on \p Arch.
  void recordVerdict(const std::string &Symbol, GpuArch Arch,
                     const PolicyVerdict &V);

  std::optional<PolicyVerdict> verdictFor(const std::string &Symbol,
                                          GpuArch Arch) const;

  /// The pruning table: is \p A worth racing for a kernel classified \p C?
  static bool axisWorthRacing(pir::analysis::BottleneckClass C,
                              VariantAxis A);

private:
  mutable std::mutex Mutex;
  std::map<std::pair<std::string, GpuArch>, PolicyVerdict> Verdicts;
};

} // namespace proteus

#endif // PROTEUS_JIT_COMPILATIONPOLICY_H
