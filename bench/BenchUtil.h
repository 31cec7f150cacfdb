//===- BenchUtil.h - shared benchmark-harness helpers -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure harnesses: standard run
/// configurations for the paper's modes (AOT / Proteus cold / Proteus warm
/// cache / Jitify, and the section 4.5 None/LB/RCF/LB+RCF specialization
/// modes), simple fixed-width table printing, and a machine-readable JSON
/// reporter (BENCH_*.json) for harnesses whose numbers feed dashboards or
/// regression checks rather than eyeballs.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_BENCH_BENCHUTIL_H
#define PROTEUS_BENCH_BENCHUTIL_H

#include "hecbench/Benchmark.h"
#include "support/FileSystem.h"
#include "support/JsonLite.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace proteus {
namespace bench {

/// Persistent-cache root for a (program, arch) pair under a harness-owned
/// temporary directory.
inline std::string cacheDirFor(const std::string &Root,
                               const std::string &Program, GpuArch Arch) {
  std::string Dir = Root + "/" + Program + "-" + gpuArchName(Arch);
  fs::createDirectories(Dir);
  return Dir;
}

/// Runs \p B under AOT.
inline hecbench::RunResult runAot(const hecbench::Benchmark &B,
                                  GpuArch Arch) {
  hecbench::RunConfig C;
  C.Arch = Arch;
  C.Mode = hecbench::ExecMode::AOT;
  return runBenchmark(B, C);
}

/// Runs \p B under Proteus. \p Cold clears the persistent cache first
/// (full dynamic-compilation overhead); warm reuses cache-jit-*.o files
/// from a previous run, like a fresh process start with a populated cache.
inline hecbench::RunResult
runProteus(const hecbench::Benchmark &B, GpuArch Arch,
           const std::string &CacheDir, bool Cold, bool EnableRCF = true,
           bool EnableLB = true,
           JitConfig::AsyncMode Async = JitConfig::AsyncMode::Sync) {
  hecbench::RunConfig C;
  C.Arch = Arch;
  C.Mode = hecbench::ExecMode::Proteus;
  C.Jit.CacheDir = CacheDir;
  C.Jit.EnableRCF = EnableRCF;
  C.Jit.EnableLaunchBounds = EnableLB;
  C.Jit.Async = Async;
  C.ColdCache = Cold;
  return runBenchmark(B, C);
}

/// Runs \p B under the Jitify-sim baseline (nvptx-sim only).
inline hecbench::RunResult runJitify(const hecbench::Benchmark &B) {
  hecbench::RunConfig C;
  C.Arch = GpuArch::NvPtxSim;
  C.Mode = hecbench::ExecMode::Jitify;
  return runBenchmark(B, C);
}

/// Prints a row of fixed-width cells.
inline void printRow(const std::vector<std::string> &Cells,
                     const std::vector<int> &Widths) {
  for (size_t I = 0; I != Cells.size(); ++I)
    std::printf("%-*s", I < Widths.size() ? Widths[I] : 12,
                Cells[I].c_str());
  std::printf("\n");
}

inline std::string fmtSeconds(double S) { return formatString("%.4f", S); }
inline std::string fmtSpeedup(double S) { return formatString("%.2fx", S); }

/// Aborts the harness with a message when a run fails — benchmark binaries
/// must never report numbers from failed/unverified runs.
inline const hecbench::RunResult &
checked(const hecbench::RunResult &R, const std::string &What) {
  if (!R.Ok || !R.Verified) {
    std::fprintf(stderr, "FATAL: %s failed: %s\n", What.c_str(),
                 R.Error.c_str());
    std::exit(1);
  }
  return R;
}

/// Machine-readable benchmark output: accumulates named rows of string
/// labels and numeric metrics and renders one JSON document per harness
/// (BENCH_<name>.json). write() re-parses the rendered text with the
/// bundled JSON reader before it reaches the disk, so a formatting bug can
/// never publish a report downstream tooling cannot read.
class JsonReporter {
public:
  explicit JsonReporter(std::string Benchmark)
      : Benchmark(std::move(Benchmark)) {}

  /// Starts a new datapoint; label()/metric() append to the latest row.
  JsonReporter &beginRow(const std::string &Name) {
    Rows.push_back(Row{Name, {}, {}});
    return *this;
  }
  JsonReporter &label(const std::string &Key, const std::string &Value) {
    Rows.back().Labels.emplace_back(Key, Value);
    return *this;
  }
  JsonReporter &metric(const std::string &Key, double Value) {
    Rows.back().Metrics.emplace_back(Key, Value);
    return *this;
  }

  /// Renders the document (exposed so smoke checks can validate without
  /// touching the filesystem).
  std::string render() const {
    std::string S = "{\n  \"benchmark\": " + quoted(Benchmark) +
                    ",\n  \"rows\": [";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      S += I ? ",\n    {" : "\n    {";
      S += "\"name\": " + quoted(R.Name);
      for (const auto &KV : R.Labels)
        S += ", " + quoted(KV.first) + ": " + quoted(KV.second);
      for (const auto &KV : R.Metrics)
        S += ", " + quoted(KV.first) + ": " + number(KV.second);
      S += "}";
    }
    S += "\n  ]\n}\n";
    return S;
  }

  /// Writes the report, then re-reads the file and requires it to parse
  /// with a non-empty "rows" array — the end-to-end check every bench
  /// gate relies on. Returns false (with \p Error set) otherwise.
  bool write(const std::string &Path, std::string *Error = nullptr) const {
    std::string Doc = render();
    std::string Problem;
    if (!fs::writeFile(Path, std::vector<uint8_t>(Doc.begin(), Doc.end()))) {
      Problem = "cannot write " + Path;
    } else if (auto Bytes = fs::readFile(Path); !Bytes) {
      Problem = Path + " missing";
    } else if (json::ParseResult PR = json::parse(
                   std::string(Bytes->begin(), Bytes->end()));
               !PR) {
      Problem = Path + " invalid: " + PR.Error;
    } else if (const json::Value *Rows = PR.V.find("rows");
               !Rows || !Rows->isArray() || Rows->Arr.empty()) {
      Problem = Path + " has no rows";
    }
    if (Error)
      *Error = Problem;
    return Problem.empty();
  }

private:
  struct Row {
    std::string Name;
    std::vector<std::pair<std::string, std::string>> Labels;
    std::vector<std::pair<std::string, double>> Metrics;
  };

  static std::string quoted(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\') {
        Out += '\\';
        Out += C;
      } else if (static_cast<unsigned char>(C) < 0x20) {
        Out += formatString("\\u%04x", C);
      } else {
        Out += C;
      }
    }
    Out += '"';
    return Out;
  }

  /// JSON has no inf/nan literals; a non-finite measurement becomes null
  /// rather than corrupting the document.
  static std::string number(double V) {
    if (!std::isfinite(V))
      return "null";
    return formatString("%.9g", V);
  }

  std::string Benchmark;
  std::vector<Row> Rows;
};

} // namespace bench
} // namespace proteus

#endif // PROTEUS_BENCH_BENCHUTIL_H
