//===- DeviceManager.h - pool of simulated devices --------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pool of N simulated GPUs, the multi-device half of the execution
/// engine. Devices may mix architectures (heterogeneous nodes: MI250X-like
/// and V100-like side by side), each owns its own memory, streams, and
/// timelines, and the pool assigns ordinals used for trace lanes and for
/// the JIT runtime's ascending-index lock order.
///
/// Configuration comes from the environment: the device count, the
/// streams pre-created per device, and the architectures cycled across the
/// pool (default: all amdgcn-sim) — rows of the knob table in
/// support/Env.h.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICEMANAGER_H
#define PROTEUS_GPU_DEVICEMANAGER_H

#include "gpu/Device.h"
#include "support/Env.h"

#include <memory>
#include <string>
#include <vector>

namespace proteus {
namespace gpu {

/// Owns N simulated devices and assigns their ordinals.
class DeviceManager {
public:
  struct Config {
    unsigned NumDevices = env::defaultOf<unsigned>(env::Knob::NumDevices);
    /// Streams pre-created per device, including the default stream.
    unsigned StreamsPerDevice =
        env::defaultOf<unsigned>(env::Knob::DefaultStreams);
    /// Architectures cycled across devices (device i gets
    /// Archs[i % Archs.size()]); empty means all amdgcn-sim.
    std::vector<GpuArch> Archs;
    uint64_t MemoryBytesPerDevice = 1ull << 28;

    bool operator==(const Config &) const = default;
  };

  /// Reads PROTEUS_NUM_DEVICES / PROTEUS_DEFAULT_STREAMS /
  /// PROTEUS_DEVICE_ARCHS through the knob table (support/Env.h).
  static Config configFromEnvironment(std::vector<std::string> *Warnings =
                                          nullptr);

  explicit DeviceManager(const Config &C);

  /// Convenience: pool configured from the environment.
  DeviceManager() : DeviceManager(configFromEnvironment()) {}

  unsigned numDevices() const {
    return static_cast<unsigned>(Devices.size());
  }

  Device &device(unsigned I) { return *Devices[I]; }
  const Device &device(unsigned I) const { return *Devices[I]; }

  /// Sum of per-device makespans — the pool's aggregate busy time. With
  /// identical work fanned out across devices this stays ~constant while
  /// the pool makespan (max) shrinks, which is what the multi-stream bench
  /// measures.
  double totalSimulatedSeconds() const;

  /// Pool makespan: completion time of all work on all devices.
  double makespanSeconds() const;

private:
  std::vector<std::unique_ptr<Device>> Devices;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICEMANAGER_H
