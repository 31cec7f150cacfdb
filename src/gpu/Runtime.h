//===- Runtime.h - HIP/CUDA-like runtime API --------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vendor-runtime facade over the simulated device — the API surface
/// the AOT-compiled host program and the Proteus JIT runtime call into,
/// mirroring the subset of hip*/cuda* entry points the paper's system uses:
/// memory management, transfers (with simulated cost), module loading,
/// symbol resolution (gpuGetSymbolAddress), reading device globals back to
/// the host (cuModuleGetGlobal path for NVIDIA bitcode extraction), kernel
/// launch, and the stream/event concurrency API (see Stream.h for the
/// per-stream timeline model).
///
/// The synchronous entry points behave like ops on the CUDA legacy default
/// stream: they start after all prior work on every stream of the device
/// (full barrier). The *Async variants enqueue FIFO on an explicit stream;
/// passing a null stream degrades to the default-stream barrier behavior.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_RUNTIME_H
#define PROTEUS_GPU_RUNTIME_H

#include "gpu/Executor.h"

namespace proteus {
namespace gpu {

enum class GpuError {
  Success = 0,
  OutOfMemory,
  InvalidValue,
  LaunchFailure,
  NotFound,
};

/// Allocates device memory (adds no simulated time, as in real runtimes the
/// cost is host-side).
GpuError gpuMalloc(Device &Dev, DevicePtr *Out, uint64_t Bytes);

/// Frees device memory. Unknown pointers and double frees return
/// InvalidValue and are counted on the device (Device::unknownFrees /
/// doubleFrees) and in metrics::processRegistry() as "gpu.free_unknown" /
/// "gpu.free_double" — leak and double-free bugs fail loudly instead of
/// being silently ignored.
GpuError gpuFree(Device &Dev, DevicePtr P);

/// Host -> device copy; advances simulated time by the transfer model.
GpuError gpuMemcpyHtoD(Device &Dev, DevicePtr Dst, const void *Src,
                       uint64_t Bytes);

/// Device -> host copy; advances simulated time.
GpuError gpuMemcpyDtoH(Device &Dev, void *Dst, DevicePtr Src,
                       uint64_t Bytes);

/// Fills device memory with a byte value.
GpuError gpuMemset(Device &Dev, DevicePtr Dst, uint8_t Value,
                   uint64_t Bytes);

/// Registers a device global (the __hipRegisterVar/__cudaRegisterVar step
/// performed by the program's initialization code).
GpuError gpuRegisterVar(Device &Dev, const std::string &Symbol,
                        uint64_t Bytes, const std::vector<uint8_t> &Init);

/// Resolves a device global's address (hip/cudaGetSymbolAddress).
GpuError gpuGetSymbolAddress(Device &Dev, DevicePtr *Out,
                             const std::string &Symbol);

/// Loads a compiled kernel object onto the device.
GpuError gpuModuleLoad(Device &Dev, LoadedKernel **Out,
                       const std::vector<uint8_t> &Object,
                       std::string *Error = nullptr);

/// Launches a loaded kernel with legacy-default-stream semantics: the
/// launch starts at the device makespan (after all prior work on every
/// stream) and its duration is charged to the default stream's timeline.
/// Memory effects are applied before return (functional-first model), so
/// results are immediately visible on the host.
GpuError gpuLaunchKernel(Device &Dev, const LoadedKernel &Kernel, Dim3 Grid,
                         Dim3 Block, const std::vector<KernelArg> &Args,
                         std::string *Error = nullptr);

// -- Streams and events ------------------------------------------------------
//
// Per-stream FIFO timelines that legally overlap; see Stream.h for the
// functional-first, timing-after model. Every *Async entry point accepts a
// null stream, which means "the device's default stream with legacy full-
// barrier semantics" — exactly the synchronous call.

/// Creates a new independent stream on \p Dev (hip/cudaStreamCreate).
GpuError gpuStreamCreate(Device &Dev, Stream **Out);

/// Drains \p S: a timing-model no-op (effects are already applied), kept
/// for API fidelity. Null \p S means the default stream.
GpuError gpuStreamSynchronize(Device &Dev, Stream *S);

/// Drains every stream on the device.
GpuError gpuDeviceSynchronize(Device &Dev);

/// Host -> device copy enqueued FIFO on \p S (effects applied eagerly,
/// cost charged to the stream's timeline).
GpuError gpuMemcpyHtoDAsync(Device &Dev, DevicePtr Dst, const void *Src,
                            uint64_t Bytes, Stream *S);

/// Device -> host copy enqueued FIFO on \p S.
GpuError gpuMemcpyDtoHAsync(Device &Dev, void *Dst, DevicePtr Src,
                            uint64_t Bytes, Stream *S);

/// Memset enqueued FIFO on \p S.
GpuError gpuMemsetAsync(Device &Dev, DevicePtr Dst, uint8_t Value,
                        uint64_t Bytes, Stream *S);

/// Launches \p Kernel FIFO on \p S: the launch starts at the stream's tail,
/// independent of other streams' timelines. Memory effects are still
/// applied in host enqueue order (deterministic functional simulation).
GpuError gpuLaunchKernelAsync(Device &Dev, const LoadedKernel &Kernel,
                              Dim3 Grid, Dim3 Block,
                              const std::vector<KernelArg> &Args, Stream *S,
                              std::string *Error = nullptr);

/// Stamps \p Ev with the completion time of all work enqueued on \p S so
/// far (hip/cudaEventRecord). Null \p S records the default stream.
GpuError gpuEventRecord(Device &Dev, Event &Ev, Stream *S);

/// Makes all later work on \p S start no earlier than \p Ev's stamp — the
/// happens-before edge (hip/cudaStreamWaitEvent). Cross-device event waits
/// are allowed: timelines share one global simulated-time coordinate.
GpuError gpuStreamWaitEvent(Stream *S, const Event &Ev);

/// Waits for \p Ev (timing no-op; InvalidValue when never recorded).
GpuError gpuEventSynchronize(const Event &Ev);

/// Elapsed simulated milliseconds from \p Start to \p End (like
/// hip/cudaEventElapsedTime). InvalidValue when either is unrecorded.
/// Events recorded on *different* devices still yield a well-defined delta
/// (all timelines share one global simulated-time coordinate), but the
/// query is counted in metrics::processRegistry() as
/// "gpu.event_cross_device" — real runtimes reject such pairs, so the
/// diagnostic makes accidental cross-device timing observable.
GpuError gpuEventElapsedTime(double *Ms, const Event &Start,
                             const Event &End);

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_RUNTIME_H
