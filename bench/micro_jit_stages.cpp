//===- micro_jit_stages.cpp - JIT pipeline stage micro-benchmarks -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro-benchmarks of the individual stages a Proteus
// cache miss pays — bitcode parse, global linking + specialization, the O3
// pipeline, backend code generation (with and without the PTX detour) —
// alongside the stages Jitify pays instead (full source parse including its
// header library). These are the mechanism behind Figures 4-6.
//
// The binary also measures the tiered-JIT cold start (PROTEUS_TIER): the
// launch-visible compile cost of a cold run with tiering off (full pipeline
// inline) versus on (Tier-0 only), written to BENCH_coldstart.json via the
// self-validating JSON reporter. `--smoke` runs one reduced iteration of
// that measurement and re-validates the emitted JSON (the bench_smoke
// ctest).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bitcode/Bitcode.h"
#include "codegen/Compiler.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "jit/CodeCache.h"
#include "jitify/Jitify.h"
#include "support/FileSystem.h"
#include "transforms/SpecializeArgs.h"

#include <benchmark/benchmark.h>

using namespace proteus;

namespace {

/// The WSM5 kernel module is the workhorse: representative size, loops,
/// selects, annotations.
std::vector<uint8_t> wsm5Bitcode() {
  static const std::vector<uint8_t> &BC = *[] {
    pir::Context Ctx;
    auto B = hecbench::makeWsm5Benchmark();
    auto M = B->buildModule(Ctx);
    return new std::vector<uint8_t>(writeBitcode(*M));
  }();
  return BC;
}

std::string wsm5Source() {
  static const std::string &Src = *[] {
    pir::Context Ctx;
    auto B = hecbench::makeWsm5Benchmark();
    auto M = B->buildModule(Ctx);
    return new std::string(pir::printModule(*M));
  }();
  return Src;
}

void BM_BitcodeParse(benchmark::State &State) {
  std::vector<uint8_t> BC = wsm5Bitcode();
  for (auto _ : State) {
    pir::Context Ctx;
    auto R = readBitcode(Ctx, BC);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(BC.size()));
}
BENCHMARK(BM_BitcodeParse);

void BM_SourceParse_ProteusEquivalentOfJitify(benchmark::State &State) {
  std::string Src = wsm5Source();
  for (auto _ : State) {
    pir::Context Ctx;
    auto R = pir::parseModule(Ctx, Src);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Src.size()));
}
BENCHMARK(BM_SourceParse_ProteusEquivalentOfJitify);

void BM_JitifyHeaderParse(benchmark::State &State) {
  const std::string &Hdr = JitifyRuntime::headerText();
  for (auto _ : State) {
    pir::Context Ctx;
    auto R = pir::parseModule(Ctx, Hdr);
    benchmark::DoNotOptimize(R.M);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Hdr.size()));
}
BENCHMARK(BM_JitifyHeaderParse);

void BM_SpecializeAndO3(benchmark::State &State) {
  std::vector<uint8_t> BC = wsm5Bitcode();
  for (auto _ : State) {
    pir::Context Ctx;
    auto R = readBitcode(Ctx, BC);
    pir::Function *F = R.M->getFunction("wsm5");
    specializeArguments(*F, {{6, 16}, {11, 0}});
    specializeLaunchBounds(*F, 128);
    runO3(*R.M);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_SpecializeAndO3);

void BM_BackendAmd(benchmark::State &State) {
  pir::Context Ctx;
  auto R = readBitcode(Ctx, wsm5Bitcode());
  runO3(*R.M);
  pir::Function *F = R.M->getFunction("wsm5");
  for (auto _ : State) {
    auto Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
    benchmark::DoNotOptimize(Obj);
  }
}
BENCHMARK(BM_BackendAmd);

void BM_BackendNvidiaWithPtxStep(benchmark::State &State) {
  pir::Context Ctx;
  auto R = readBitcode(Ctx, wsm5Bitcode());
  runO3(*R.M);
  pir::Function *F = R.M->getFunction("wsm5");
  for (auto _ : State) {
    auto Obj = compileKernelToObject(*F, getNvPtxSimTarget());
    benchmark::DoNotOptimize(Obj);
  }
}
BENCHMARK(BM_BackendNvidiaWithPtxStep);

void BM_CacheHashAndMemoryLookup(benchmark::State &State) {
  CodeCache Cache(true, false, "");
  SpecializationKey Key;
  Key.ModuleId = 0xfeedface;
  Key.KernelSymbol = "wsm5";
  Key.FoldedArgs = {{6, 16}, {8, 42}, {11, 0}};
  Key.LaunchBoundsThreads = 128;
  Cache.insert(computeSpecializationHash(Key), std::vector<uint8_t>(4096));
  for (auto _ : State) {
    uint64_t H = computeSpecializationHash(Key);
    auto Hit = Cache.lookup(H);
    benchmark::DoNotOptimize(Hit);
  }
}
BENCHMARK(BM_CacheHashAndMemoryLookup);

void BM_PersistentCacheLookup(benchmark::State &State) {
  std::string Dir = fs::makeTempDirectory("proteus-microcache");
  CodeCache Writer(false, true, Dir);
  Writer.insert(0x1234, std::vector<uint8_t>(8192));
  for (auto _ : State) {
    CodeCache Cold(false, true, Dir); // no memory level: always hits disk
    auto Hit = Cold.lookup(0x1234);
    benchmark::DoNotOptimize(Hit);
  }
  fs::removeAllFiles(Dir);
}
BENCHMARK(BM_PersistentCacheLookup);

/// Cold-start comparison behind the tiering claim: per program, one cold
/// Proteus run with the full pipeline on the launch path (tier off) and
/// one where only Tier-0 is launch-visible (tier on). Both runs verify
/// their outputs (checked()), so the latency numbers come with a
/// correctness proof attached. Returns false if the report cannot be
/// written.
bool writeColdstartReport(bool Smoke) {
  using namespace proteus::bench;
  using namespace proteus::hecbench;

  std::vector<std::unique_ptr<Benchmark>> Programs;
  Programs.push_back(makeWsm5Benchmark());
  if (!Smoke) {
    Programs.push_back(makeAdamBenchmark());
    Programs.push_back(makeRsbenchBenchmark());
  }

  JsonReporter Rep("coldstart");
  double OffVisible = 0, OnVisible = 0;
  for (const auto &B : Programs) {
    for (bool Tier : {false, true}) {
      RunConfig C;
      C.Arch = GpuArch::AmdGcnSim;
      C.Mode = ExecMode::Proteus;
      C.Jit.UsePersistentCache = false; // every specialization is cold
      C.Jit.Tier = Tier;
      RunResult R = checked(runBenchmark(*B, C),
                            B->name() + std::string(Tier ? " (tier on)"
                                                         : " (tier off)"));
      Rep.beginRow(B->name())
          .label("mode", Tier ? "tier_on" : "tier_off")
          .metric("visible_compile_seconds", R.Jit.LaunchBlockedSeconds)
          .metric("total_compile_seconds", R.Jit.totalCompileSeconds())
          .metric("tier0_compiles", static_cast<double>(R.Jit.Tier0Compiles))
          .metric("final_compiles", static_cast<double>(R.Jit.Compilations))
          .metric("tier1_promotions",
                  static_cast<double>(R.Jit.Tier1Promotions))
          .metric("end_to_end_seconds", R.endToEndSeconds());
      (Tier ? OnVisible : OffVisible) += R.Jit.LaunchBlockedSeconds;
    }
  }
  Rep.beginRow("summary")
      .metric("tier_off_visible_seconds", OffVisible)
      .metric("tier_on_visible_seconds", OnVisible)
      .metric("coldstart_speedup",
              OnVisible > 0 ? OffVisible / OnVisible : 0);

  std::string Err;
  if (!Rep.write("BENCH_coldstart.json", &Err)) {
    std::fprintf(stderr, "FATAL: %s\n", Err.c_str());
    return false;
  }
  std::printf("cold-start visible compile: tier off %.4fs, tier on %.4fs"
              " (%.2fx) -> BENCH_coldstart.json\n",
              OffVisible, OnVisible,
              OnVisible > 0 ? OffVisible / OnVisible : 0.0);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--smoke")
      Smoke = true;

  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
      return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }

  if (!writeColdstartReport(Smoke))
    return 1;
  return 0;
}
