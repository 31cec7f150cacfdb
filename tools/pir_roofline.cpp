//===- pir_roofline.cpp - static roofline classifier CLI ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Places every kernel of the given inputs on the simulated targets'
// rooflines and reports the bottleneck classification — the same verdict
// PROTEUS_POLICY=on computes inside the JIT, available ahead of time for
// kernel authors and for the pinned-corpus golden checks:
//
//   pir-roofline [--target=amdgcn-sim|nvptx-sim|all] [--json]
//                [--trace trace.json] file.pir|file.pcap [...]
//
// Inputs may be textual .pir modules (every kernel definition is
// classified) or capture artifacts (.pcap; the recorded kernel's pruned
// bitcode is classified). Classification here is purely static — no launch
// geometry or register-allocation feedback is applied — so the verdict is
// the kernel's intrinsic roofline position, deterministic for a given
// (file, arch), which is what the corpus goldens pin. One line per
// (kernel, target):
//
//   <file>: @kernel [<arch>] class=<Class> ai=<v> ridge=<v>
//       peak_gflops=<v> peak_bw=<v>        (one line, wrapped here)
//
// With --trace, a chrome-trace export's device lanes are additionally run
// through the cross-stream critical-path analysis, reporting the makespan,
// the critical-path length, and each kernel's criticality fraction.
//
// --json emits one machine-readable document (self-validated through
// JsonLite before printing). Exit status: 0 on success, 1 when any input
// could not be classified, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/CriticalPath.h"
#include "analysis/Roofline.h"
#include "bitcode/ModuleIndex.h"
#include "capture/Artifact.h"
#include "codegen/Target.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "support/FileSystem.h"
#include "support/JsonLite.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace proteus;

namespace {

struct KernelRow {
  std::string File;
  std::string Kernel;
  std::string Arch;
  pir::analysis::RooflineReport Report;
};

std::string formatMetric(double V) {
  if (std::isinf(V))
    return "inf";
  return formatString("%.6g", V);
}

bool endsWith(const std::string &S, const char *Suffix) {
  std::string Suf = Suffix;
  return S.size() >= Suf.size() &&
         S.compare(S.size() - Suf.size(), Suf.size(), Suf) == 0;
}

/// Classifies every kernel of \p File on each target in \p Targets.
/// Returns false (with a diagnostic on stderr) when the file cannot be
/// read, parsed or holds no kernel.
bool classifyFile(const std::string &File,
                  const std::vector<const TargetInfo *> &Targets,
                  std::vector<KernelRow> &Rows) {
  pir::Context Ctx;
  std::unique_ptr<pir::Module> Owner;
  std::vector<pir::Function *> Kernels;

  if (endsWith(File, ".pcap")) {
    std::string Error;
    std::optional<capture::CaptureArtifact> A =
        capture::readArtifactFile(File, &Error);
    if (!A) {
      std::fprintf(stderr, "pir-roofline: %s: %s\n", File.c_str(),
                   Error.c_str());
      return false;
    }
    std::shared_ptr<const KernelModuleIndex> Index =
        KernelModuleIndex::create(A->Bitcode, Error);
    if (!Index) {
      std::fprintf(stderr, "pir-roofline: %s: %s\n", File.c_str(),
                   Error.c_str());
      return false;
    }
    Owner = Index->materialize(Ctx, A->KernelSymbol, nullptr);
    pir::Function *F = Owner ? Owner->getFunction(A->KernelSymbol) : nullptr;
    if (!F) {
      std::fprintf(stderr, "pir-roofline: %s: artifact kernel @%s missing\n",
                   File.c_str(), A->KernelSymbol.c_str());
      return false;
    }
    Kernels.push_back(F);
  } else {
    auto Bytes = fs::readFile(File);
    if (!Bytes) {
      std::fprintf(stderr, "pir-roofline: cannot read '%s'\n", File.c_str());
      return false;
    }
    std::string Text(Bytes->begin(), Bytes->end());
    pir::ParseResult R = pir::parseModule(Ctx, Text);
    if (!R) {
      std::fprintf(stderr, "pir-roofline: %s: parse error: %s\n",
                   File.c_str(), R.Error.c_str());
      return false;
    }
    Owner = std::move(R.M);
    for (auto &F : Owner->functions())
      if (F->isKernel() && !F->isDeclaration())
        Kernels.push_back(F.get());
    if (Kernels.empty()) {
      std::fprintf(stderr, "pir-roofline: %s: no kernel definitions\n",
                   File.c_str());
      return false;
    }
  }

  for (pir::Function *F : Kernels) {
    // The profile is arch-neutral; compute it once per kernel and fold it
    // against each target's wave size and ceilings.
    pir::analysis::KernelStaticProfile P =
        pir::analysis::computeStaticProfile(*F);
    for (const TargetInfo *T : Targets) {
      KernelRow Row;
      Row.File = File;
      Row.Kernel = F->getName();
      Row.Arch = T->Name;
      Row.Report = pir::analysis::classifyProfile(P, *T);
      Rows.push_back(std::move(Row));
    }
  }
  return true;
}

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

void appendJsonNumber(std::string &Out, double V) {
  // JSON has no infinity; encode the no-bytes-moved AI as a string.
  if (std::isinf(V) || std::isnan(V)) {
    appendJsonString(Out, formatMetric(V));
    return;
  }
  Out += formatString("%.17g", V);
}

std::string
renderJson(const std::vector<KernelRow> &Rows,
           const std::optional<analysis::CriticalPathReport> &Trace) {
  std::string Out = "{\"kernels\":[";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const KernelRow &R = Rows[I];
    if (I)
      Out += ',';
    Out += "{\"file\":";
    appendJsonString(Out, R.File);
    Out += ",\"kernel\":";
    appendJsonString(Out, R.Kernel);
    Out += ",\"arch\":";
    appendJsonString(Out, R.Arch);
    Out += ",\"class\":";
    appendJsonString(Out,
                     pir::analysis::bottleneckClassName(R.Report.Class));
    Out += ",\"ai\":";
    appendJsonNumber(Out, R.Report.ArithmeticIntensity);
    Out += ",\"ridge\":";
    appendJsonNumber(Out, R.Report.Model.ridgeFlopsPerByte());
    Out += ",\"peak_gflops\":";
    appendJsonNumber(Out, R.Report.Model.PeakGFlops);
    Out += ",\"peak_bw_gbs\":";
    appendJsonNumber(Out, R.Report.Model.PeakBandwidthGBs);
    Out += ",\"attainable_gflops\":";
    appendJsonNumber(Out, R.Report.AttainableGFlops);
    Out += ",\"reason\":";
    appendJsonString(Out, R.Report.Reason);
    Out += '}';
  }
  Out += ']';
  if (Trace) {
    Out += ",\"critical_path\":{\"critical_path_ns\":";
    appendJsonNumber(Out, static_cast<double>(Trace->CriticalPathNs));
    Out += ",\"makespan_ns\":";
    appendJsonNumber(Out, static_cast<double>(Trace->MakespanNs));
    Out += ",\"kernels\":[";
    for (size_t I = 0; I != Trace->ByName.size(); ++I) {
      const analysis::NameCriticality &N = Trace->ByName[I];
      if (I)
        Out += ',';
      Out += "{\"name\":";
      appendJsonString(Out, N.Name);
      Out += ",\"total_ns\":";
      appendJsonNumber(Out, static_cast<double>(N.TotalNs));
      Out += ",\"critical_ns\":";
      appendJsonNumber(Out, static_cast<double>(N.CriticalNs));
      Out += ",\"criticality\":";
      appendJsonNumber(Out, N.CriticalityFraction);
      Out += '}';
    }
    Out += "]}";
  }
  Out += "}\n";
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Json = false;
  std::string TargetSel = "all";
  std::string TracePath;
  std::vector<std::string> Files;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--json") {
      Json = true;
    } else if (Arg.rfind("--target=", 0) == 0) {
      TargetSel = Arg.substr(9);
    } else if (Arg == "--trace" && I + 1 < Argc) {
      TracePath = Argv[++I];
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pir-roofline: unknown option '%s'\n",
                   Arg.c_str());
      return 2;
    } else {
      Files.push_back(std::move(Arg));
    }
  }
  std::vector<const TargetInfo *> Targets;
  if (TargetSel == "all") {
    Targets = {&getAmdGcnSimTarget(), &getNvPtxSimTarget()};
  } else if (TargetSel == "amdgcn-sim") {
    Targets = {&getAmdGcnSimTarget()};
  } else if (TargetSel == "nvptx-sim") {
    Targets = {&getNvPtxSimTarget()};
  } else {
    std::fprintf(stderr,
                 "pir-roofline: invalid --target '%s' (expected "
                 "amdgcn-sim|nvptx-sim|all)\n",
                 TargetSel.c_str());
    return 2;
  }
  if (Files.empty() && TracePath.empty()) {
    std::fprintf(stderr,
                 "usage: pir-roofline [--target=amdgcn-sim|nvptx-sim|all] "
                 "[--json] [--trace trace.json] file.pir|file.pcap [...]\n");
    return 2;
  }

  bool AllOk = true;
  std::vector<KernelRow> Rows;
  for (const std::string &F : Files)
    if (!classifyFile(F, Targets, Rows))
      AllOk = false;

  std::optional<analysis::CriticalPathReport> Trace;
  if (!TracePath.empty()) {
    auto Bytes = fs::readFile(TracePath);
    if (!Bytes) {
      std::fprintf(stderr, "pir-roofline: cannot read trace '%s'\n",
                   TracePath.c_str());
      AllOk = false;
    } else {
      std::string Error;
      std::vector<analysis::TimelineSpan> Spans;
      if (!analysis::parseTraceLanes(
              std::string_view(reinterpret_cast<const char *>(Bytes->data()),
                               Bytes->size()),
              Spans, Error)) {
        std::fprintf(stderr, "pir-roofline: trace '%s': %s\n",
                     TracePath.c_str(), Error.c_str());
        AllOk = false;
      } else {
        Trace = analysis::analyzeTimeline(std::move(Spans));
      }
    }
  }

  if (Json) {
    std::string Doc = renderJson(Rows, Trace);
    json::ParseResult PR = json::parse(Doc);
    if (!PR) {
      std::fprintf(stderr,
                   "pir-roofline: internal error: produced invalid JSON: %s\n",
                   PR.Error.c_str());
      return 2;
    }
    std::fputs(Doc.c_str(), stdout);
    return AllOk ? 0 : 1;
  }

  for (const KernelRow &R : Rows)
    std::printf("%s: @%s [%s] class=%s ai=%s ridge=%s peak_gflops=%s "
                "peak_bw=%s\n",
                R.File.c_str(), R.Kernel.c_str(), R.Arch.c_str(),
                pir::analysis::bottleneckClassName(R.Report.Class),
                formatMetric(R.Report.ArithmeticIntensity).c_str(),
                formatMetric(R.Report.Model.ridgeFlopsPerByte()).c_str(),
                formatMetric(R.Report.Model.PeakGFlops).c_str(),
                formatMetric(R.Report.Model.PeakBandwidthGBs).c_str());
  if (Trace) {
    std::printf("%s: critical_path_ns=%llu makespan_ns=%llu\n",
                TracePath.c_str(),
                static_cast<unsigned long long>(Trace->CriticalPathNs),
                static_cast<unsigned long long>(Trace->MakespanNs));
    for (const analysis::NameCriticality &N : Trace->ByName)
      std::printf("%s: kernel %s total_ns=%llu critical_ns=%llu "
                  "criticality=%s\n",
                  TracePath.c_str(), N.Name.c_str(),
                  static_cast<unsigned long long>(N.TotalNs),
                  static_cast<unsigned long long>(N.CriticalNs),
                  formatMetric(N.CriticalityFraction).c_str());
  }
  return AllOk ? 0 : 1;
}
