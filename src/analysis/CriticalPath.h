//===- CriticalPath.h - cross-stream critical-path analysis -----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Critical-path analysis over the `trace::lane` timelines: given the
/// per-device/per-stream span lanes the tracer records for kernel
/// executions, reconstruct the implied dependency DAG and find the chain of
/// spans that gates end-to-end time. The edges are structural, recovered
/// from the timeline itself:
///
///  * same-lane FIFO order — a stream executes its launches in order, so
///    each span depends on its lane predecessor;
///  * cross-lane gating — a span that starts only after some span on
///    another lane finished is treated as gated by the latest such finisher
///    (the host-side synchronization the trace cannot record directly).
///
/// A forward/backward longest-path pass yields the critical-path length,
/// per-span slack, and a per-kernel-name criticality fraction. The
/// heterogeneous scheduler (sched/Scheduler.h) biases placement by it, and
/// `pir-roofline --trace` reports it.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_ANALYSIS_CRITICALPATH_H
#define PROTEUS_ANALYSIS_CRITICALPATH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {
namespace analysis {

/// One complete span on a timeline lane (a device:stream track).
struct TimelineSpan {
  std::string Name;
  uint32_t Tid = 0; ///< lane track id (trace::laneTid)
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;

  uint64_t endNs() const { return StartNs + DurNs; }
};

/// Per-span result of the analysis.
struct SpanCriticality {
  TimelineSpan Span;
  /// How far this span could slip without lengthening the critical path.
  uint64_t SlackNs = 0;
  bool OnCriticalPath = false;
};

/// Aggregated criticality of all spans sharing one name.
struct NameCriticality {
  std::string Name;
  uint64_t TotalNs = 0;        ///< summed duration across all spans
  uint64_t CriticalNs = 0;     ///< summed duration of zero-slack spans
  double CriticalityFraction = 0; ///< CriticalNs / CriticalPathNs
};

struct CriticalPathReport {
  /// Length of the longest dependency chain (sum of span durations on it).
  uint64_t CriticalPathNs = 0;
  /// Wall-clock extent of the timeline: last end minus first start.
  uint64_t MakespanNs = 0;
  std::vector<SpanCriticality> Spans;
  /// Per-name aggregation, sorted by descending CriticalNs (ties by name).
  std::vector<NameCriticality> ByName;

  /// Names with at least one zero-slack span — the kernels that gate
  /// end-to-end time.
  std::vector<std::string> criticalNames() const;

  /// Criticality fraction of \p Name, or -1 when the report carries no
  /// spans of that name. The slack export the heterogeneous scheduler
  /// consumes: 0 means every span of the kernel had slack (placing it on
  /// an idle-but-slower device cannot lengthen the run), positive means it
  /// gates end-to-end time, unknown (-1) is treated as critical.
  double criticalityOf(const std::string &Name) const;

  /// Names whose every span had slack — the off-critical-path kernels the
  /// scheduler may bias toward idle or slower devices.
  std::vector<std::string> slackNames() const;
};

/// Runs the critical-path pass over \p Spans. Order of the input does not
/// matter; the result is deterministic.
CriticalPathReport analyzeTimeline(std::vector<TimelineSpan> Spans);

/// Extracts the lane spans (complete events on tids at or above
/// trace::LaneTidBase) from a chrome-trace JSON document, converting the
/// microsecond timestamps back to nanoseconds. Returns false with
/// \p Error set on malformed input.
bool parseTraceLanes(std::string_view JsonText, std::vector<TimelineSpan> &Out,
                     std::string &Error);

} // namespace analysis
} // namespace proteus

#endif // PROTEUS_ANALYSIS_CRITICALPATH_H
