//===- figure_in_depth.cpp - paper Figures 7-11 reproduction --------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// In-depth analysis of one HeCBench program (paper Figures 7-11): kernel
// duration and hardware counters under AOT and the JIT specialization modes
// None/LB/RCF/LB+RCF, on both simulated architectures. bench/CMakeLists.txt
// builds it once per figure (figure7_adam ... figure11_sw4ck), defining
// PROTEUS_FIGURE (the figure number), PROTEUS_FIGURE_TARGET (the binary
// name) and PROTEUS_FIGURE_MAKER (the program's hecbench factory).
//
//===----------------------------------------------------------------------===//

#include "InDepth.h"

using namespace proteus;
using namespace proteus::bench;

int main() {
  std::string Root = fs::makeTempDirectory("proteus-" PROTEUS_FIGURE_TARGET);
  auto B = hecbench::PROTEUS_FIGURE_MAKER();
  std::printf("=== Figure %d: in-depth analysis of %s ===\n", PROTEUS_FIGURE,
              B->name().c_str());
  printInDepth(*B, GpuArch::AmdGcnSim, Root);
  printInDepth(*B, GpuArch::NvPtxSim, Root);
  return 0;
}
