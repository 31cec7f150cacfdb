//===- CriticalPath.cpp - cross-stream critical-path analysis ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "analysis/CriticalPath.h"

#include "support/JsonLite.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace proteus;
using namespace proteus::analysis;

std::vector<std::string> CriticalPathReport::criticalNames() const {
  std::vector<std::string> Names;
  for (const NameCriticality &N : ByName)
    if (N.CriticalNs > 0)
      Names.push_back(N.Name);
  return Names;
}

CriticalPathReport analysis::analyzeTimeline(std::vector<TimelineSpan> Spans) {
  CriticalPathReport R;
  if (Spans.empty())
    return R;

  // Deterministic topological order: edges only ever point from a span to
  // one starting no earlier, so (start, tid, name) ordering is a valid
  // processing order and independent of input order.
  std::sort(Spans.begin(), Spans.end(),
            [](const TimelineSpan &A, const TimelineSpan &B) {
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              return A.Name < B.Name;
            });

  const size_t N = Spans.size();
  std::vector<std::vector<size_t>> Preds(N);

  // Same-lane FIFO adjacency: each span depends on its lane predecessor.
  std::map<uint32_t, size_t> LastOnLane;
  for (size_t I = 0; I != N; ++I) {
    auto It = LastOnLane.find(Spans[I].Tid);
    if (It != LastOnLane.end())
      Preds[I].push_back(It->second);
    LastOnLane[Spans[I].Tid] = I;
  }

  // Cross-lane gating: the latest-finishing span on another lane whose end
  // is at or before this span's start. O(n^2) worst case, fine for the
  // bounded trace buffers this runs over.
  for (size_t I = 0; I != N; ++I) {
    size_t Gate = N;
    uint64_t GateEnd = 0;
    for (size_t J = 0; J != I; ++J) {
      if (Spans[J].Tid == Spans[I].Tid)
        continue;
      const uint64_t End = Spans[J].endNs();
      if (End > Spans[I].StartNs)
        continue;
      if (Gate == N || End > GateEnd ||
          (End == GateEnd && J > Gate)) { // latest end, then latest in order
        Gate = J;
        GateEnd = End;
      }
    }
    if (Gate != N)
      Preds[I].push_back(Gate);
  }

  // Forward pass: longest chain ending at each span (inclusive).
  std::vector<uint64_t> Head(N, 0);
  for (size_t I = 0; I != N; ++I) {
    uint64_t Best = 0;
    for (size_t P : Preds[I])
      Best = std::max(Best, Head[P]);
    Head[I] = Best + Spans[I].DurNs;
  }
  R.CriticalPathNs = *std::max_element(Head.begin(), Head.end());

  // Backward pass: longest chain starting at each span (inclusive).
  std::vector<uint64_t> Tail(N, 0);
  for (size_t I = N; I-- != 0;) {
    Tail[I] = std::max(Tail[I], Spans[I].DurNs);
    for (size_t P : Preds[I])
      Tail[P] = std::max(Tail[P], Tail[I] + Spans[P].DurNs);
  }

  uint64_t FirstStart = Spans.front().StartNs;
  uint64_t LastEnd = 0;
  for (const TimelineSpan &S : Spans)
    LastEnd = std::max(LastEnd, S.endNs());
  R.MakespanNs = LastEnd - FirstStart;

  R.Spans.reserve(N);
  std::map<std::string, NameCriticality> ByName;
  for (size_t I = 0; I != N; ++I) {
    SpanCriticality SC;
    SC.Span = Spans[I];
    const uint64_t Through = Head[I] + Tail[I] - Spans[I].DurNs;
    SC.SlackNs = R.CriticalPathNs - Through;
    SC.OnCriticalPath = SC.SlackNs == 0;

    NameCriticality &NC = ByName[Spans[I].Name];
    NC.Name = Spans[I].Name;
    NC.TotalNs += Spans[I].DurNs;
    if (SC.OnCriticalPath)
      NC.CriticalNs += Spans[I].DurNs;
    R.Spans.push_back(std::move(SC));
  }

  R.ByName.reserve(ByName.size());
  for (auto &KV : ByName) {
    if (R.CriticalPathNs > 0)
      KV.second.CriticalityFraction =
          static_cast<double>(KV.second.CriticalNs) / R.CriticalPathNs;
    R.ByName.push_back(std::move(KV.second));
  }
  std::sort(R.ByName.begin(), R.ByName.end(),
            [](const NameCriticality &A, const NameCriticality &B) {
              if (A.CriticalNs != B.CriticalNs)
                return A.CriticalNs > B.CriticalNs;
              return A.Name < B.Name;
            });
  return R;
}

bool analysis::parseTraceLanes(std::string_view JsonText,
                               std::vector<TimelineSpan> &Out,
                               std::string &Error) {
  json::ParseResult P = json::parse(JsonText);
  if (!P) {
    Error = P.Error;
    return false;
  }
  const json::Value *Events = P.V.find("traceEvents");
  if (!Events || !Events->isArray()) {
    Error = "missing traceEvents array";
    return false;
  }
  for (const json::Value &E : Events->Arr) {
    const json::Value *Ph = E.find("ph");
    if (!Ph || !Ph->isString() || Ph->Str != "X")
      continue;
    const json::Value *Tid = E.find("tid");
    if (!Tid || !Tid->isNumber() || Tid->Num < trace::LaneTidBase)
      continue;
    const json::Value *Name = E.find("name");
    const json::Value *Ts = E.find("ts");
    const json::Value *Dur = E.find("dur");
    if (!Name || !Name->isString() || !Ts || !Ts->isNumber() || !Dur ||
        !Dur->isNumber()) {
      Error = "lane span missing name/ts/dur";
      return false;
    }
    TimelineSpan S;
    S.Name = Name->Str;
    S.Tid = static_cast<uint32_t>(Tid->Num);
    // Chrome-trace timestamps are microseconds; the tracer records ns.
    S.StartNs = static_cast<uint64_t>(Ts->Num * 1000.0 + 0.5);
    S.DurNs = static_cast<uint64_t>(Dur->Num * 1000.0 + 0.5);
    Out.push_back(std::move(S));
  }
  return true;
}
