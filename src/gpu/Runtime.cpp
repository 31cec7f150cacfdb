//===- Runtime.cpp - HIP/CUDA-like runtime API -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/Runtime.h"

#include "gpu/PerfModel.h"
#include "support/Error.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstring>

using namespace proteus;
using namespace proteus::gpu;

const char *proteus::gpu::gpuErrorName(GpuError E) {
  switch (E) {
  case GpuError::Success:
    return "success";
  case GpuError::OutOfMemory:
    return "out of memory";
  case GpuError::InvalidValue:
    return "invalid value";
  case GpuError::LaunchFailure:
    return "launch failure";
  case GpuError::NotFound:
    return "not found";
  }
  proteus_unreachable("unknown gpu error");
}

GpuError proteus::gpu::gpuMalloc(Device &Dev, DevicePtr *Out,
                                 uint64_t Bytes) {
  if (!Out)
    return GpuError::InvalidValue;
  DevicePtr P = Dev.allocate(Bytes);
  if (!P)
    return GpuError::OutOfMemory;
  *Out = P;
  return GpuError::Success;
}

GpuError proteus::gpu::gpuFree(Device &Dev, DevicePtr P) {
  switch (Dev.free(P)) {
  case FreeStatus::Ok:
    return GpuError::Success;
  case FreeStatus::Unknown:
    metrics::processRegistry().counter("gpu.free_unknown").add();
    return GpuError::InvalidValue;
  case FreeStatus::DoubleFree:
    metrics::processRegistry().counter("gpu.free_double").add();
    return GpuError::InvalidValue;
  }
  proteus_unreachable("unknown free status");
}

GpuError proteus::gpu::gpuMemcpyHtoD(Device &Dev, DevicePtr Dst,
                                     const void *Src, uint64_t Bytes) {
  if (!Dev.validRange(Dst, Bytes))
    return GpuError::InvalidValue;
  std::memcpy(Dev.memory().data() + Dst, Src, Bytes);
  Dev.chargeSerial(transferSeconds(Dev.target(), Bytes), "memcpyHtoD");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuMemcpyDtoH(Device &Dev, void *Dst, DevicePtr Src,
                                     uint64_t Bytes) {
  if (!Dev.validRange(Src, Bytes))
    return GpuError::InvalidValue;
  std::memcpy(Dst, Dev.memory().data() + Src, Bytes);
  Dev.chargeSerial(transferSeconds(Dev.target(), Bytes), "memcpyDtoH");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuMemset(Device &Dev, DevicePtr Dst, uint8_t Value,
                                 uint64_t Bytes) {
  if (!Dev.validRange(Dst, Bytes))
    return GpuError::InvalidValue;
  std::memset(Dev.memory().data() + Dst, Value, Bytes);
  Dev.chargeSerial(transferSeconds(Dev.target(), Bytes) / 2, "memset");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuRegisterVar(Device &Dev, const std::string &Symbol,
                                      uint64_t Bytes,
                                      const std::vector<uint8_t> &Init) {
  return Dev.registerGlobal(Symbol, Bytes, Init) ? GpuError::Success
                                                 : GpuError::OutOfMemory;
}

GpuError proteus::gpu::gpuGetSymbolAddress(Device &Dev, DevicePtr *Out,
                                           const std::string &Symbol) {
  if (!Out)
    return GpuError::InvalidValue;
  DevicePtr P = Dev.getSymbolAddress(Symbol);
  if (!P)
    return GpuError::NotFound;
  *Out = P;
  return GpuError::Success;
}

GpuError proteus::gpu::gpuModuleLoad(Device &Dev, LoadedKernel **Out,
                                     const std::vector<uint8_t> &Object,
                                     std::string *Error) {
  if (!Out)
    return GpuError::InvalidValue;
  LoadedKernel *K = Dev.loadKernel(Object, Error);
  if (!K)
    return GpuError::InvalidValue;
  // Module loading costs simulated time proportional to the binary size
  // (driver upload + setup).
  Dev.chargeSerial(20e-6 + transferSeconds(Dev.target(), Object.size()),
                   "moduleLoad");
  *Out = K;
  return GpuError::Success;
}

// Trace-lane label for a kernel launch; interning keeps the pointer valid
// for the session. Null when tracing is off so Stream::enqueue skips it.
static const char *kernelTraceName(const LoadedKernel &Kernel) {
  return trace::enabled() ? trace::internName(Kernel.Name) : nullptr;
}

GpuError proteus::gpu::gpuLaunchKernel(Device &Dev,
                                       const LoadedKernel &Kernel, Dim3 Grid,
                                       Dim3 Block,
                                       const std::vector<KernelArg> &Args,
                                       std::string *Error) {
  LaunchResult R = launchKernel(Dev, Kernel, Grid, Block, Args);
  if (!R.Ok) {
    if (Error)
      *Error = R.Error;
    return GpuError::LaunchFailure;
  }
  Dev.chargeSerial(R.Stats.DurationSec, kernelTraceName(Kernel));
  Dev.addKernelSeconds(R.Stats.DurationSec);
  return GpuError::Success;
}

GpuError proteus::gpu::gpuStreamCreate(Device &Dev, Stream **Out) {
  if (!Out)
    return GpuError::InvalidValue;
  *Out = Dev.createStream();
  return GpuError::Success;
}

GpuError proteus::gpu::gpuStreamSynchronize(Device &Dev, Stream *S) {
  if (S && &S->device() != &Dev)
    return GpuError::InvalidValue;
  // Functional effects are applied at enqueue time, so draining a stream
  // has nothing left to do in either the value or timing model.
  return GpuError::Success;
}

GpuError proteus::gpu::gpuDeviceSynchronize(Device &) {
  return GpuError::Success;
}

GpuError proteus::gpu::gpuMemcpyHtoDAsync(Device &Dev, DevicePtr Dst,
                                          const void *Src, uint64_t Bytes,
                                          Stream *S) {
  if (!S)
    return gpuMemcpyHtoD(Dev, Dst, Src, Bytes);
  if (&S->device() != &Dev || !Dev.validRange(Dst, Bytes))
    return GpuError::InvalidValue;
  std::memcpy(Dev.memory().data() + Dst, Src, Bytes);
  S->enqueue(transferSeconds(Dev.target(), Bytes), "memcpyHtoD");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuMemcpyDtoHAsync(Device &Dev, void *Dst,
                                          DevicePtr Src, uint64_t Bytes,
                                          Stream *S) {
  if (!S)
    return gpuMemcpyDtoH(Dev, Dst, Src, Bytes);
  if (&S->device() != &Dev || !Dev.validRange(Src, Bytes))
    return GpuError::InvalidValue;
  std::memcpy(Dst, Dev.memory().data() + Src, Bytes);
  S->enqueue(transferSeconds(Dev.target(), Bytes), "memcpyDtoH");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuMemsetAsync(Device &Dev, DevicePtr Dst,
                                      uint8_t Value, uint64_t Bytes,
                                      Stream *S) {
  if (!S)
    return gpuMemset(Dev, Dst, Value, Bytes);
  if (&S->device() != &Dev || !Dev.validRange(Dst, Bytes))
    return GpuError::InvalidValue;
  std::memset(Dev.memory().data() + Dst, Value, Bytes);
  S->enqueue(transferSeconds(Dev.target(), Bytes) / 2, "memset");
  return GpuError::Success;
}

GpuError proteus::gpu::gpuLaunchKernelAsync(
    Device &Dev, const LoadedKernel &Kernel, Dim3 Grid, Dim3 Block,
    const std::vector<KernelArg> &Args, Stream *S, std::string *Error) {
  if (!S)
    return gpuLaunchKernel(Dev, Kernel, Grid, Block, Args, Error);
  if (&S->device() != &Dev)
    return GpuError::InvalidValue;
  LaunchResult R = launchKernel(Dev, Kernel, Grid, Block, Args);
  if (!R.Ok) {
    if (Error)
      *Error = R.Error;
    return GpuError::LaunchFailure;
  }
  S->enqueue(R.Stats.DurationSec, kernelTraceName(Kernel));
  Dev.addKernelSeconds(R.Stats.DurationSec);
  return GpuError::Success;
}

GpuError proteus::gpu::gpuEventRecord(Device &Dev, Event &Ev, Stream *S) {
  if (S && &S->device() != &Dev)
    return GpuError::InvalidValue;
  Ev.TimeSec = S ? S->tailSeconds() : Dev.defaultStream().tailSeconds();
  Ev.DeviceOrdinal = static_cast<int>(Dev.ordinal());
  return GpuError::Success;
}

GpuError proteus::gpu::gpuStreamWaitEvent(Stream *S, const Event &Ev) {
  if (!S || !Ev.recorded())
    return GpuError::InvalidValue;
  S->waitUntil(Ev.TimeSec);
  return GpuError::Success;
}

GpuError proteus::gpu::gpuEventSynchronize(const Event &Ev) {
  return Ev.recorded() ? GpuError::Success : GpuError::InvalidValue;
}

GpuError proteus::gpu::gpuEventElapsedTime(double *Ms, const Event &Start,
                                           const Event &End) {
  if (!Ms || !Start.recorded() || !End.recorded())
    return GpuError::InvalidValue;
  // Stamps from different devices subtract cleanly — every timeline shares
  // one global simulated-time coordinate — but real runtimes reject such
  // pairs, so count a diagnostic to make accidental cross-device timing
  // queries observable.
  if (Start.DeviceOrdinal >= 0 && End.DeviceOrdinal >= 0 &&
      Start.DeviceOrdinal != End.DeviceOrdinal)
    metrics::processRegistry().counter("gpu.event_cross_device").add();
  *Ms = (End.TimeSec - Start.TimeSec) * 1e3;
  return GpuError::Success;
}
