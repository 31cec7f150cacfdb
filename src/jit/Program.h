//===- Program.h - host program load and dispatch ---------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LoadedProgram models the host side of a compiled application at run
/// time: program startup registers device globals (the __hipRegisterVar /
/// __cudaRegisterVar constructors, plus __jit_register_var when Proteus is
/// enabled), uploads NVIDIA bitcode data globals, loads AOT kernel
/// binaries, and dispatches each kernel launch either directly through the
/// vendor runtime (AOT) or through __jit_launch_kernel (annotated kernels
/// under Proteus).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_JIT_PROGRAM_H
#define PROTEUS_JIT_PROGRAM_H

#include "jit/AotCompiler.h"
#include "jit/JitRuntime.h"

namespace proteus {

/// A program image loaded on a device, ready to launch kernels.
class LoadedProgram {
public:
  /// Loads \p Program on \p Dev. When \p Jit is non-null, annotated kernels
  /// dispatch through it (Proteus mode); otherwise every kernel runs its
  /// AOT binary.
  LoadedProgram(gpu::Device &Dev, const CompiledProgram &Program,
                JitRuntime *Jit);

  /// True if the image loaded cleanly.
  bool ok() const { return LoadError.empty(); }
  const std::string &error() const { return LoadError; }

  /// Launches \p Symbol with the given geometry and arguments.
  gpu::GpuError launch(const std::string &Symbol, gpu::Dim3 Grid,
                       gpu::Dim3 Block,
                       const std::vector<gpu::KernelArg> &Args,
                       std::string *Error = nullptr);

  /// Device address of a program global.
  gpu::DevicePtr globalAddress(const std::string &Symbol) const;

private:
  /// What a launch of one symbol runs: the JIT kernel when it has a handle,
  /// else the AOT binary.
  struct Entry {
    KernelHandle Jit;
    gpu::LoadedKernel *Aot = nullptr;
  };

  gpu::Device &Dev;
  JitRuntime *Jit;
  std::unordered_map<std::string, Entry> Kernels;
  std::string LoadError;
};

} // namespace proteus

#endif // PROTEUS_JIT_PROGRAM_H
