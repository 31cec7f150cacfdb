//===- DeviceManager.cpp - pool of simulated devices -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/DeviceManager.h"

#include "support/Env.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>

using namespace proteus;
using namespace proteus::gpu;

DeviceManager::Config
DeviceManager::configFromEnvironment(std::vector<std::string> *Warnings) {
  Config C;
  parseBounded("PROTEUS_NUM_DEVICES", 1, 64, C.NumDevices, Warnings);
  parseBounded("PROTEUS_DEFAULT_STREAMS", 1, 256, C.StreamsPerDevice, Warnings);
  if (const char *A = std::getenv("PROTEUS_DEVICE_ARCHS")) {
    // Strict grammar: <arch> ("," <arch>)* with no empty segments — a
    // trailing, leading, or doubled comma rejects the whole value, as does
    // an unknown architecture name. split() keeps empty fields, which is
    // what makes a trailing comma's empty final segment visible.
    std::vector<GpuArch> Archs;
    for (std::string_view Tok : split(A, ',')) {
      if (Tok == gpuArchName(GpuArch::AmdGcnSim)) {
        Archs.push_back(GpuArch::AmdGcnSim);
      } else if (Tok == gpuArchName(GpuArch::NvPtxSim)) {
        Archs.push_back(GpuArch::NvPtxSim);
      } else {
        emitConfigWarning(
            Warnings,
            "ignoring invalid PROTEUS_DEVICE_ARCHS value '" + std::string(A) +
                "': " +
                (Tok.empty() ? std::string("empty segment")
                             : "unknown architecture '" + std::string(Tok) +
                                   "'") +
                " (expected amdgcn-sim|nvptx-sim, comma-separated, no empty "
                "segments)");
        Archs.clear();
        break;
      }
    }
    if (!Archs.empty())
      C.Archs = std::move(Archs);
  }
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
