//===- CompilationPolicy.cpp - bottleneck-aware JIT policy ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/CompilationPolicy.h"

using namespace proteus;
using pir::analysis::BottleneckClass;

void CompilationPolicy::recordVerdict(const std::string &Symbol, GpuArch Arch,
                                      const PolicyVerdict &V) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Verdicts[{Symbol, Arch}] = V;
}

std::optional<PolicyVerdict>
CompilationPolicy::verdictFor(const std::string &Symbol, GpuArch Arch) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Verdicts.find({Symbol, Arch});
  if (It == Verdicts.end())
    return std::nullopt;
  return It->second;
}

bool CompilationPolicy::axisWorthRacing(BottleneckClass C, VariantAxis A) {
  switch (C) {
  case BottleneckClass::MemoryBound:
    // The bandwidth ceiling binds: no compile-side axis reduces bytes
    // moved, and block reshapes do not change waves-in-flight for a fixed
    // launch in the occupancy model. Keep the recorded default only.
    return false;
  case BottleneckClass::ComputeBound:
    // Pipeline aggressiveness is the lever; reshaping blocks is not.
    return A != VariantAxis::BlockSize;
  case BottleneckClass::RegPressureBound:
    // The launch-bounds budget sweep (block sizes) is the whole point;
    // unrolling only adds pressure.
    return A != VariantAxis::Unroll;
  case BottleneckClass::LatencyBound:
    // No ceiling clearly binds — nothing justifies pruning.
    return true;
  }
  return true;
}
