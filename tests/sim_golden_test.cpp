//===- sim_golden_test.cpp - pinned simulator results ---------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Pins the functional simulator: for every HeCBench-sim program on both
// architectures, run in Proteus mode, every LaunchStats counter of every
// kernel, the bits of every derived rate and of the simulated seconds, and
// a digest of the final output buffers must equal the committed goldens in
// tests/golden/sim_golden.txt. Host-side executor and device-memory changes
// must reproduce these lines exactly; a change that means to move them
// regenerates the file from the "actual" lines this test prints.
//
//===----------------------------------------------------------------------===//

#include "hecbench/Benchmark.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace proteus;
using namespace proteus::hecbench;

namespace {

std::string bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return hashToHex(B);
}

/// One line per kernel plus one summary line per (program, arch).
std::vector<std::string> simLines(const Benchmark &B, GpuArch Arch) {
  RunConfig C;
  C.Arch = Arch;
  C.Mode = ExecMode::Proteus;
  C.Jit.UsePersistentCache = false;
  RunResult R = runBenchmark(B, C);
  std::string Prefix = B.name() + " " + gpuArchName(Arch);
  if (!R.Ok)
    return {Prefix + " error " + R.Error};
  std::vector<std::string> Out;
  for (const auto &[Kernel, S] : R.Profile) {
    Out.push_back(formatString(
        "%s kernel=%s blocks=%llu tpb=%llu insts=%llu valu=%llu salu=%llu "
        "ld=%llu st=%llu spill_ld=%llu spill_st=%llu atomics=%llu "
        "branches=%llu barriers=%llu trans=%llu div=%llu l2_hit=%llu "
        "l2_miss=%llu regs=%u spill_slots=%u lb=%u occ=%s dur=%s ipc=%s "
        "valu_busy=%s stall=%s",
        Prefix.c_str(), Kernel.c_str(),
        static_cast<unsigned long long>(S.Blocks),
        static_cast<unsigned long long>(S.ThreadsPerBlock),
        static_cast<unsigned long long>(S.TotalInstrs),
        static_cast<unsigned long long>(S.VALUInsts),
        static_cast<unsigned long long>(S.SALUInsts),
        static_cast<unsigned long long>(S.MemLoads),
        static_cast<unsigned long long>(S.MemStores),
        static_cast<unsigned long long>(S.SpillLoads),
        static_cast<unsigned long long>(S.SpillStores),
        static_cast<unsigned long long>(S.Atomics),
        static_cast<unsigned long long>(S.Branches),
        static_cast<unsigned long long>(S.Barriers),
        static_cast<unsigned long long>(S.TranscendentalInsts),
        static_cast<unsigned long long>(S.DivInsts),
        static_cast<unsigned long long>(S.L2Hits),
        static_cast<unsigned long long>(S.L2Misses), S.RegsUsed,
        S.SpillSlots, S.LaunchBoundsThreads, bitsOf(S.Occupancy).c_str(),
        bitsOf(S.DurationSec).c_str(), bitsOf(S.IPC).c_str(),
        bitsOf(S.VALUBusyPct).c_str(), bitsOf(S.StallPct).c_str()));
  }
  FNV1aHash H;
  for (const auto &[Name, Bytes] : R.Outputs) {
    H.update(Name);
    H.update(Bytes);
  }
  Out.push_back(formatString("%s device_s=%s kernel_s=%s digest=%s",
                             Prefix.c_str(), bitsOf(R.DeviceSeconds).c_str(),
                             bitsOf(R.KernelSeconds).c_str(),
                             hashToHex(H.digest()).c_str()));
  return Out;
}

std::vector<std::string> goldenLines() {
  std::ifstream In(PROTEUS_SIM_GOLDEN);
  std::vector<std::string> Out;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Out.push_back(Line);
  return Out;
}

class SimGolden : public ::testing::TestWithParam<int> {};

TEST_P(SimGolden, MatchesCommittedGoldens) {
  auto All = allBenchmarks();
  const Benchmark &B = *All[static_cast<size_t>(GetParam())];
  std::vector<std::string> Golden = goldenLines();
  ASSERT_FALSE(Golden.empty()) << "no goldens at " << PROTEUS_SIM_GOLDEN;
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    std::string Prefix = B.name() + " " + gpuArchName(Arch) + " ";
    std::vector<std::string> Want;
    for (const std::string &L : Golden)
      if (L.compare(0, Prefix.size(), Prefix) == 0)
        Want.push_back(L);
    std::vector<std::string> Got = simLines(B, Arch);
    std::ostringstream Actual;
    for (const std::string &L : Got)
      Actual << L << "\n";
    EXPECT_EQ(Got, Want) << "actual lines for " << Prefix << ":\n"
                         << Actual.str();
  }
}

std::string programName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"ADAM",   "RSBENCH", "WSM5",
                                "FEYKAC", "LULESH",  "SW4CK"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SimGolden, ::testing::Range(0, 6),
                         programName);

} // namespace
