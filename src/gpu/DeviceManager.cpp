//===- DeviceManager.cpp - pool of simulated devices -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/DeviceManager.h"

#include "support/Env.h"

#include <algorithm>

using namespace proteus;
using namespace proteus::gpu;

DeviceManager::Config
DeviceManager::configFromEnvironment(std::vector<std::string> *Warnings) {
  Config C;
  env::read(env::Knob::NumDevices, C.NumDevices, Warnings);
  env::read(env::Knob::DefaultStreams, C.StreamsPerDevice, Warnings);
  std::vector<unsigned> Archs;
  if (env::read(env::Knob::DeviceArchs, Archs, Warnings))
    for (unsigned A : Archs)
      C.Archs.push_back(static_cast<GpuArch>(A));
  return C;
}

DeviceManager::DeviceManager(const Config &C) {
  std::vector<GpuArch> Archs =
      C.Archs.empty() ? std::vector<GpuArch>{GpuArch::AmdGcnSim} : C.Archs;
  unsigned N = C.NumDevices ? C.NumDevices : 1;
  for (unsigned I = 0; I != N; ++I) {
    const TargetInfo &TI = getTarget(Archs[I % Archs.size()]);
    Devices.emplace_back(new Device(TI, C.MemoryBytesPerDevice));
    Devices.back()->setOrdinal(I);
    for (unsigned S = 1; S < C.StreamsPerDevice; ++S)
      Devices.back()->createStream();
  }
}

double DeviceManager::totalSimulatedSeconds() const {
  double Sum = 0.0;
  for (const auto &D : Devices)
    Sum += D->simulatedSeconds();
  return Sum;
}

double DeviceManager::makespanSeconds() const {
  double Max = 0.0;
  for (const auto &D : Devices)
    Max = std::max(Max, D->simulatedSeconds());
  return Max;
}
