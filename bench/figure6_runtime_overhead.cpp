//===- figure6_runtime_overhead.cpp - paper Figure 6 reproduction -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 6: end-to-end speedup (values below 1 are slowdown)
// when every runtime specialization is deliberately disabled — kernels are
// JIT-compiled with just the O3 pipeline, exposing pure dynamic-compilation
// overhead. Paper shapes: small slowdowns without caching (0.9-0.99x AMD,
// 0.8-0.98x NVIDIA, the gap from device-memory bitcode readback plus the
// PTX step), near-1.0 with a warm cache.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <map>

using namespace proteus;
using namespace proteus::bench;
using namespace proteus::hecbench;

int main() {
  std::string Root = fs::makeTempDirectory("proteus-figure6");
  auto Benchmarks = allBenchmarks();
  const std::vector<int> Widths = {26, 12, 12, 12, 12, 12, 12};

  std::printf("=== Figure 6: speedup over AOT with specialization disabled"
              " ===\n");
  std::vector<std::string> Header = {"Configuration"};
  for (const auto &B : Benchmarks)
    Header.push_back(B->name());
  printRow(Header, Widths);

  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    std::vector<std::string> ColdRow = {
        std::string(gpuArchName(Arch)) + " no-cache"};
    std::vector<std::string> WarmRow = {
        std::string(gpuArchName(Arch)) + " cached"};
    for (const auto &B : Benchmarks) {
      std::string Dir = cacheDirFor(Root, B->name(), Arch);
      const RunResult Aot = checked(runAot(*B, Arch), B->name() + " AOT");
      // "None" mode: RCF and LB both off; O3-only dynamic compilation.
      const RunResult Cold =
          checked(runProteus(*B, Arch, Dir, true, false, false),
                  B->name() + " none cold");
      const RunResult Warm =
          checked(runProteus(*B, Arch, Dir, false, false, false),
                  B->name() + " none warm");
      ColdRow.push_back(
          fmtSpeedup(Aot.endToEndSeconds() / Cold.endToEndSeconds()));
      WarmRow.push_back(
          fmtSpeedup(Aot.endToEndSeconds() / Warm.endToEndSeconds()));
    }
    printRow(ColdRow, Widths);
    printRow(WarmRow, Widths);
  }

  // --- Async pipeline: launch-visible vs hidden compile time ---------------
  //
  // The same cold "None" runs under each JitConfig::AsyncMode, splitting
  // total compile time into the part that blocked a launch (visible — what
  // the figure above pays for) and the part overlapped with execution on
  // the worker pool (hidden). Fallback additionally reports how many
  // launches were served by the generic AOT binary while specialized code
  // compiled in the background.
  std::printf("\n=== Figure 6b: compile time visible on the launch path"
              " (visible/hidden ms, cold cache) ===\n");
  printRow(Header, Widths);
  std::map<std::string, JitRuntimeStats> SyncStats;
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    for (JitConfig::AsyncMode Mode :
         {JitConfig::AsyncMode::Sync, JitConfig::AsyncMode::Fallback}) {
      std::vector<std::string> Row = {std::string(gpuArchName(Arch)) + " " +
                                      asyncModeName(Mode)};
      std::vector<std::string> FbRow = {"  fallback launches"};
      for (const auto &B : Benchmarks) {
        std::string Dir = cacheDirFor(Root, B->name() + "-async-" +
                                                asyncModeName(Mode),
                                      Arch);
        const RunResult R =
            checked(runProteus(*B, Arch, Dir, true, false, false, Mode),
                    B->name() + " async " + asyncModeName(Mode));
        Row.push_back(formatString("%.1f/%.1f",
                                   R.Jit.LaunchBlockedSeconds * 1e3,
                                   R.Jit.hiddenCompileSeconds() * 1e3));
        FbRow.push_back(formatString("%llu", (unsigned long long)
                                                 R.Jit.FallbackLaunches));
        if (Mode == JitConfig::AsyncMode::Sync)
          SyncStats[std::string(gpuArchName(Arch)) + "/" + B->name()] = R.Jit;
      }
      printRow(Row, Widths);
      if (Mode == JitConfig::AsyncMode::Fallback)
        printRow(FbRow, Widths);
    }
  }

  // --- Per-stage compile-time breakdown ------------------------------------
  //
  // Where the cold dynamic-compilation overhead of Figure 6 actually goes,
  // from the per-stage timer metrics collected on the Sync runs above. The
  // same stages appear as spans in a chrome://tracing export: re-run any
  // harness with PROTEUS_TRACE=<file> for the full timeline view.
  std::printf("\n=== Figure 6c: cold-compile per-stage breakdown"
              " (ms, Sync mode) ===\n");
  struct StageRow {
    const char *Label;
    double JitRuntimeStats::*Field;
  };
  const StageRow Stages[] = {
      {"bitcode fetch", &JitRuntimeStats::BitcodeFetchSeconds},
      {"bitcode parse", &JitRuntimeStats::BitcodeParseSeconds},
      {"  of it materialize", &JitRuntimeStats::BitcodeMaterializeSeconds},
      {"link globals", &JitRuntimeStats::LinkGlobalsSeconds},
      {"specialize", &JitRuntimeStats::SpecializeSeconds},
      {"O3 pipeline", &JitRuntimeStats::OptimizeSeconds},
      {"analyze", &JitRuntimeStats::AnalyzeSeconds},
      {"backend", &JitRuntimeStats::BackendSeconds},
      {"cache lookup", &JitRuntimeStats::CacheLookupSeconds},
  };
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    std::vector<std::string> ArchHeader = {std::string(gpuArchName(Arch)) +
                                           " stage"};
    for (const auto &B : Benchmarks)
      ArchHeader.push_back(B->name());
    printRow(ArchHeader, Widths);
    for (const StageRow &S : Stages) {
      std::vector<std::string> Row = {std::string("  ") + S.Label};
      for (const auto &B : Benchmarks) {
        const JitRuntimeStats &J =
            SyncStats[std::string(gpuArchName(Arch)) + "/" + B->name()];
        Row.push_back(formatString("%.2f", J.*(S.Field) * 1e3));
      }
      printRow(Row, Widths);
    }
    // The single most expensive O3 pass, attributed via the per-pass timing
    // hook (o3.pass.* timers in the metrics registry).
    std::vector<std::string> HotRow = {"  hottest O3 pass"};
    for (const auto &B : Benchmarks) {
      const JitRuntimeStats &J =
          SyncStats[std::string(gpuArchName(Arch)) + "/" + B->name()];
      std::string Best;
      double BestSeconds = -1.0;
      for (const auto &[Name, Seconds] : J.O3PassSeconds) {
        if (Seconds > BestSeconds) {
          BestSeconds = Seconds;
          Best = Name;
        }
      }
      HotRow.push_back(Best.empty()
                           ? std::string("-")
                           : Best + formatString(" %.2f", BestSeconds * 1e3));
    }
    printRow(HotRow, Widths);
  }

  // --- Kernel-sanitizer overhead -------------------------------------------
  //
  // What the default PROTEUS_ANALYZE=warn stage costs on a cold compile:
  // total compile time with the analysis off vs on, and the analysis
  // stage's share of the latter. The contract is that the share stays
  // small (<5% of the median cold compile) — the analysis reuses the IR
  // the optimizer already produced, so it is one dataflow fixpoint plus
  // three linear scans per kernel.
  std::printf("\n=== Figure 6d: kernel-sanitizer overhead"
              " (PROTEUS_ANALYZE, cold compile, Sync mode) ===\n");
  printRow(Header, Widths);
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    std::vector<std::string> OffRow = {std::string(gpuArchName(Arch)) +
                                       " off (ms)"};
    std::vector<std::string> WarnRow = {std::string(gpuArchName(Arch)) +
                                        " warn (ms)"};
    std::vector<std::string> ShareRow = {"  analyze share"};
    std::vector<double> Shares;
    for (const auto &B : Benchmarks) {
      auto runWithAnalyze = [&](JitConfig::AnalyzeMode AM, const char *Tag) {
        hecbench::RunConfig C;
        C.Arch = Arch;
        C.Mode = hecbench::ExecMode::Proteus;
        C.Jit.CacheDir =
            cacheDirFor(Root, B->name() + "-analyze-" + Tag, Arch);
        C.Jit.EnableRCF = false;
        C.Jit.EnableLaunchBounds = false;
        C.Jit.Analyze = AM;
        C.ColdCache = true;
        return checked(runBenchmark(*B, C),
                       B->name() + " analyze-" + Tag);
      };
      const RunResult Off =
          runWithAnalyze(JitConfig::AnalyzeMode::Off, "off");
      const RunResult Warn =
          runWithAnalyze(JitConfig::AnalyzeMode::Warn, "warn");
      const double OffMs = Off.Jit.totalCompileSeconds() * 1e3;
      const double WarnMs = Warn.Jit.totalCompileSeconds() * 1e3;
      const double Share =
          WarnMs > 0 ? Warn.Jit.AnalyzeSeconds * 1e3 / WarnMs * 100.0 : 0.0;
      Shares.push_back(Share);
      OffRow.push_back(formatString("%.2f", OffMs));
      WarnRow.push_back(formatString("%.2f", WarnMs));
      ShareRow.push_back(formatString("%.1f%%", Share));
    }
    printRow(OffRow, Widths);
    printRow(WarnRow, Widths);
    printRow(ShareRow, Widths);
    std::sort(Shares.begin(), Shares.end());
    std::printf("  median analyze share (%s): %.1f%% of cold compile time\n",
                gpuArchName(Arch), Shares[Shares.size() / 2]);
  }
  return 0;
}
