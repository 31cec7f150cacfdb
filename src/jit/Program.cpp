//===- Program.cpp - host program load and dispatch -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/Program.h"

using namespace proteus;
using namespace proteus::gpu;

LoadedProgram::LoadedProgram(Device &Dev, const CompiledProgram &Program,
                             JitRuntime *Jit)
    : Dev(Dev), Jit(Jit) {
  // Loading a program on a device the runtime has not seen attaches it:
  // one JitRuntime can serve a program image loaded on several devices
  // (idempotent for the primary device).
  if (Jit)
    Jit->attachDevice(Dev);

  // 1) Register device globals (program-init constructors).
  for (const ImageGlobal &G : Program.Image.Globals) {
    if (gpuRegisterVar(Dev, G.Name, G.Bytes, G.Init) != GpuError::Success) {
      LoadError = "failed to register device global @" + G.Name;
      return;
    }
    if (Jit) {
      DevicePtr Addr = 0;
      gpuGetSymbolAddress(Dev, &Addr, G.Name);
      Jit->registerVar(G.Name, Addr); // __jit_register_var
    }
  }

  // 2) Upload NVIDIA-path bitcode data globals (__jit_bc_<symbol> live in
  // the device data segment).
  std::map<std::string, std::pair<DevicePtr, uint64_t>> DeviceBitcode;
  if (Jit) {
    for (const auto &[Symbol, Bytes] : Program.Image.JitDataGlobals) {
      std::string GlobalName = "__jit_bc_" + Symbol;
      DevicePtr Addr = Dev.registerGlobal(GlobalName, Bytes.size(), Bytes);
      if (!Addr) {
        LoadError = "failed to upload " + GlobalName;
        return;
      }
      DeviceBitcode[Symbol] = {Addr, Bytes.size()};
    }
  }

  // 3) Load AOT kernel binaries. Kernels dispatched through the JIT do not
  // need their AOT objects, but real programs still carry them; loading is
  // cheap and keeps the image faithful.
  for (const auto &[Symbol, Object] : Program.Image.KernelObjects) {
    LoadedKernel *K = nullptr;
    std::string Err;
    if (gpuModuleLoad(Dev, &K, Object, &Err) != GpuError::Success) {
      LoadError = "failed to load AOT kernel @" + Symbol + ": " + Err;
      return;
    }
    Kernels[Symbol].Aot = K;
  }

  // 4) Register JIT kernels with the runtime library.
  if (Jit) {
    for (const std::string &Symbol : Program.JitKernels) {
      JitKernelInfo Info;
      Info.Symbol = Symbol;
      auto AIt = Program.JitArgIndices.find(Symbol);
      if (AIt != Program.JitArgIndices.end())
        Info.AnnotatedArgs = AIt->second;
      auto SIt = Program.Image.JitSections.find(Symbol);
      if (SIt != Program.Image.JitSections.end()) {
        Info.HostBitcode = SIt->second; // .jit.<symbol> section (AMD path)
      } else if (auto DIt = DeviceBitcode.find(Symbol);
                 DIt != DeviceBitcode.end()) {
        Info.DeviceBitcodeAddr = DIt->second.first; // NVIDIA path
        Info.DeviceBitcodeSize = DIt->second.second;
        Info.BitcodeDevice = &Dev; // readback must target this device
      } else {
        LoadError = "no bitcode found for JIT kernel @" + Symbol;
        return;
      }
      // The generic (unspecialized) AOT object is the cover a cold launch
      // runs in AsyncMode::Fallback.
      if (auto OIt = Program.Image.KernelObjects.find(Symbol);
          OIt != Program.Image.KernelObjects.end())
        Info.GenericObject = OIt->second;
      Kernels[Symbol].Jit = Jit->registerKernel(std::move(Info));
    }
  }
}

GpuError LoadedProgram::launch(const std::string &Symbol, Dim3 Grid,
                               Dim3 Block,
                               const std::vector<KernelArg> &Args,
                               std::string *Error) {
  auto It = Kernels.find(Symbol);
  if (It != Kernels.end() && It->second.Jit)
    return Jit->launchKernelOn(0, It->second.Jit, Grid, Block, Args, nullptr,
                               Error);
  if (It == Kernels.end() || !It->second.Aot) {
    if (Error)
      *Error = "unknown kernel @" + Symbol;
    return GpuError::NotFound;
  }
  return gpuLaunchKernel(Dev, *It->second.Aot, Grid, Block, Args, Error);
}

DevicePtr LoadedProgram::globalAddress(const std::string &Symbol) const {
  return Dev.getSymbolAddress(Symbol);
}
