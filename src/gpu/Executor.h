//===- Executor.h - functional GPU execution --------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes loaded machine code over a launch grid against real device
/// memory (functional simulation: every thread runs, results are exact) and
/// produces LaunchStats. Kernel duration comes from the analytic performance
/// model in PerfModel.h, driven by the executed instruction mix, the L2
/// cache simulation, and register-pressure-derived occupancy.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_EXECUTOR_H
#define PROTEUS_GPU_EXECUTOR_H

#include "gpu/Device.h"

#include <cstdint>
#include <string>

namespace proteus {
namespace gpu {

/// 3-D launch extent.
struct Dim3 {
  uint32_t X = 1, Y = 1, Z = 1;

  uint64_t count() const {
    return static_cast<uint64_t>(X) * Y * Z;
  }
};

/// A launch argument: raw 64-bit payload (OpSemantics boxing).
struct KernelArg {
  uint64_t Bits = 0;
};

/// Result of a kernel launch.
struct LaunchResult {
  bool Ok = false;
  std::string Error;
  LaunchStats Stats;
};

/// Decodes an allocated machine function into \p Out's header and flat code
/// stream, giving each instruction its handler. Fails (setting \p Error) on
/// an unallocated function, on an operand out of range for its register
/// file, spill area, block list or sub-opcode space, and on code that could
/// run past its last instruction (empty code, a last instruction that is not
/// a terminator, or a branch to a trailing empty block), so launches can
/// trust every index and never check the PC.
bool decodeKernel(const mcode::MachineFunction &MF, LoadedKernel &Out,
                  std::string *Error = nullptr);

/// Runs \p Kernel over the grid. Fails cleanly on out-of-bounds accesses,
/// bad argument counts, or runaway execution (per-thread step limit).
LaunchResult launchKernel(Device &Dev, const LoadedKernel &Kernel,
                          Dim3 Grid, Dim3 Block,
                          const std::vector<KernelArg> &Args,
                          uint64_t MaxStepsPerThread = 50'000'000);

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_EXECUTOR_H
