//===- Trace.cpp - structured runtime tracing ---------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Env.h"
#include "support/FileSystem.h"
#include "support/JsonLite.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <memory>
#include <set>

using namespace proteus;

std::atomic<bool> trace::detail::EnabledFlag{false};

namespace {

using Clock = std::chrono::steady_clock;

/// One recorded event. Names are interned/static pointers so the ring stays
/// allocation-free after start().
struct Event {
  const char *Name = nullptr;
  const char *Cat = nullptr;
  uint64_t TsNs = 0;  // span start (or event time) since session start
  uint64_t DurNs = 0; // 'X' events only
  double Value = 0;   // 'C' events only
  uint32_t Tid = 0;
  uint32_t Depth = 0; // span nesting depth on its thread ('X' only)
  char Ph = 'X';      // 'X' complete, 'i' instant, 'C' counter
};

struct TraceState {
  std::mutex Mutex;
  std::vector<Event> Ring; // capacity fixed at start()
  size_t Head = 0;         // index of the oldest event
  size_t Count = 0;
  uint64_t Dropped = 0;
  /// Every distinct event name seen this session — survives ring wraparound
  /// and is exported in the JSON metadata.
  std::set<const char *> SeenNames;
  std::string OutputPath;
  Clock::time_point SessionStart = Clock::now();
  bool AtExitRegistered = false;
};

TraceState &state() {
  // Intentionally leaked: the atexit flush can run after function-local
  // static destructors, so the state must never be destroyed.
  static TraceState *S = new TraceState;
  return *S;
}

/// Session-lifetime interned name storage (never freed: names are few and
/// events reference them by pointer).
struct InternTable {
  std::mutex Mutex;
  std::map<std::string, std::unique_ptr<std::string>> Names;
};

InternTable &internTable() {
  // Intentionally leaked: events hold interned pointers and the atexit
  // flush reads them after static destructors have already run — a
  // destructible table would leave the export with dangling names.
  static InternTable *T = new InternTable;
  return *T;
}

uint32_t threadId() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Tid = Next.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

thread_local uint32_t SpanDepth = 0;

void record(Event E) {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (!trace::enabled() || S.Ring.empty())
    return; // session stopped between the probe and here
  S.SeenNames.insert(E.Name);
  if (S.Count < S.Ring.size()) {
    S.Ring[(S.Head + S.Count) % S.Ring.size()] = E;
    ++S.Count;
  } else {
    S.Ring[S.Head] = E; // overwrite the oldest
    S.Head = (S.Head + 1) % S.Ring.size();
    ++S.Dropped;
  }
}

void flushAtExit() {
  TraceState &S = state();
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Path = S.OutputPath;
  }
  if (trace::enabled() && !Path.empty())
    trace::writeJson(Path);
}

void appendJsonString(std::string &Out, const char *Str) {
  Out.push_back('"');
  for (const char *P = Str; *P; ++P) {
    unsigned char C = static_cast<unsigned char>(*P);
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (C < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out.push_back(static_cast<char>(C));
    }
  }
  Out.push_back('"');
}

/// Reads PROTEUS_TRACE / PROTEUS_TRACE_BUFFER once at load time so traced
/// processes need no code changes. The object file is linked in whenever
/// anything references the trace probes.
struct EnvActivation {
  EnvActivation() {
    std::string Path;
    if (!env::read(env::Knob::Trace, Path, nullptr))
      return;
    size_t Capacity = trace::DefaultCapacity;
    env::read(env::Knob::TraceBuffer, Capacity, nullptr);
    trace::start(Path, Capacity);
  }
} TheEnvActivation;

} // namespace

void trace::start(const std::string &OutputPath, size_t CapacityEvents) {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Ring.assign(std::max<size_t>(CapacityEvents, 1), Event{});
  S.Head = 0;
  S.Count = 0;
  S.Dropped = 0;
  S.SeenNames.clear();
  S.OutputPath = OutputPath;
  S.SessionStart = Clock::now();
  if (!S.AtExitRegistered) {
    std::atexit(flushAtExit);
    S.AtExitRegistered = true;
  }
  detail::EnabledFlag.store(true, std::memory_order_relaxed);
}

void trace::stop() {
  TraceState &S = state();
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    if (!detail::EnabledFlag.load(std::memory_order_relaxed))
      return;
    detail::EnabledFlag.store(false, std::memory_order_relaxed);
    Path = S.OutputPath;
  }
  if (!Path.empty())
    writeJson(Path);
}

uint64_t trace::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - state().SessionStart)
          .count());
}

const char *trace::internName(const std::string &Name) {
  InternTable &T = internTable();
  std::lock_guard<std::mutex> Lock(T.Mutex);
  auto &Slot = T.Names[Name];
  if (!Slot)
    Slot = std::make_unique<std::string>(Name);
  return Slot->c_str();
}

void trace::instant(const char *Name, const char *Cat) {
  if (!enabled())
    return;
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNs = nowNs();
  E.Tid = threadId();
  E.Ph = 'i';
  record(E);
}

void trace::counterValue(const char *Name, double Value) {
  if (!enabled())
    return;
  Event E;
  E.Name = Name;
  E.Cat = "counter";
  E.TsNs = nowNs();
  E.Value = Value;
  E.Tid = threadId();
  E.Ph = 'C';
  record(E);
}

void trace::complete(const char *Name, const char *Cat, uint64_t StartNs,
                     uint64_t DurNs) {
  if (!enabled())
    return;
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNs = StartNs;
  E.DurNs = DurNs;
  E.Tid = threadId();
  E.Depth = SpanDepth;
  E.Ph = 'X';
  record(E);
}

void trace::lane(const char *Name, const char *Cat, uint32_t Tid,
                 uint64_t TsNs, uint64_t DurNs) {
  if (!enabled())
    return;
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsNs = TsNs;
  E.DurNs = DurNs;
  E.Tid = Tid;
  E.Depth = 0; // lanes carry flat FIFO spans, no nesting
  E.Ph = 'X';
  record(E);
}

trace::Span::Span(const char *Name, const char *Cat)
    : Name(Name), Cat(Cat), StartNs(0), Active(enabled()) {
  if (!Active)
    return;
  ++SpanDepth;
  StartNs = nowNs();
}

trace::Span::~Span() {
  if (!Active)
    return;
  uint64_t End = nowNs();
  // Depth is decremented first so the recorded depth counts enclosing
  // spans only (outermost span = depth 0).
  --SpanDepth;
  complete(Name, Cat, StartNs, End > StartNs ? End - StartNs : 0);
}

size_t trace::recordedEvents() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Count;
}

uint64_t trace::droppedEvents() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Dropped;
}

std::string trace::exportJson() {
  TraceState &S = state();
  std::vector<Event> Events;
  uint64_t Dropped;
  std::vector<const char *> Names;
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Events.reserve(S.Count);
    for (size_t I = 0; I != S.Count; ++I)
      Events.push_back(S.Ring[(S.Head + I) % S.Ring.size()]);
    Dropped = S.Dropped;
    Names.assign(S.SeenNames.begin(), S.SeenNames.end());
  }
  std::stable_sort(Events.begin(), Events.end(),
                   [](const Event &A, const Event &B) {
                     return A.TsNs < B.TsNs;
                   });

  std::string Out;
  Out.reserve(128 + Events.size() * 96);
  Out += "{\"traceEvents\":[\n";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"proteus\"}}";
  for (const Event &E : Events) {
    Out += ",\n{\"name\":";
    appendJsonString(Out, E.Name);
    Out += ",\"cat\":";
    appendJsonString(Out, E.Cat ? E.Cat : "proteus");
    Out += formatString(",\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
                        E.Ph, E.Tid, E.TsNs / 1e3);
    switch (E.Ph) {
    case 'X':
      Out += formatString(",\"dur\":%.3f,\"args\":{\"depth\":%u}",
                          E.DurNs / 1e3, E.Depth);
      break;
    case 'C':
      Out += formatString(",\"args\":{\"value\":%g}", E.Value);
      break;
    default: // instant
      Out += ",\"s\":\"t\",\"args\":{}";
      break;
    }
    Out += "}";
  }
  Out += "\n],\"otherData\":{";
  Out += formatString("\"droppedEvents\":%llu,\"recordedEvents\":%llu,",
                      static_cast<unsigned long long>(Dropped),
                      static_cast<unsigned long long>(Events.size()));
  Out += "\"spanNames\":[";
  for (size_t I = 0; I != Names.size(); ++I) {
    if (I)
      Out += ",";
    appendJsonString(Out, Names[I]);
  }
  Out += "]}}\n";
  return Out;
}

bool trace::writeJson(const std::string &Path) {
  std::string Json = exportJson();
  std::vector<uint8_t> Bytes(Json.begin(), Json.end());
  return fs::writeFileAtomic(Path, Bytes);
}

// --- Export validation -------------------------------------------------------

namespace {

bool validationFail(std::string *ErrorOut, const std::string &Msg) {
  if (ErrorOut)
    *ErrorOut = Msg;
  return false;
}

} // namespace

bool trace::validateTraceFile(const std::string &Path,
                              const std::vector<std::string> &RequiredNames,
                              std::string *ErrorOut) {
  std::optional<std::vector<uint8_t>> Bytes = fs::readFile(Path);
  if (!Bytes)
    return validationFail(ErrorOut, "cannot read trace file " + Path);
  json::ParseResult Doc = json::parse(
      std::string_view(reinterpret_cast<const char *>(Bytes->data()),
                       Bytes->size()));
  if (!Doc)
    return validationFail(ErrorOut,
                          "invalid JSON at byte " +
                              std::to_string(Doc.ErrorOffset) + ": " +
                              Doc.Error);
  if (!Doc.V.isObject())
    return validationFail(ErrorOut, "top-level value is not an object");
  const json::Value *Events = Doc.V.find("traceEvents");
  if (!Events || !Events->isArray())
    return validationFail(ErrorOut, "missing traceEvents array");

  struct SpanIv {
    double Start, End;
  };
  std::map<double, std::vector<SpanIv>> SpansByTid;
  std::set<std::string> Seen;

  for (const json::Value &E : Events->Arr) {
    if (!E.isObject())
      return validationFail(ErrorOut, "event is not an object");
    const json::Value *Name = E.find("name");
    const json::Value *Ph = E.find("ph");
    if (!Name || !Name->isString() || !Ph || !Ph->isString() ||
        Ph->Str.size() != 1)
      return validationFail(ErrorOut, "event missing name/ph");
    if (Ph->Str == "M")
      continue; // metadata events carry no timestamps
    Seen.insert(Name->Str);
    const json::Value *Ts = E.find("ts");
    const json::Value *Tid = E.find("tid");
    if (!Ts || !Ts->isNumber() || Ts->Num < 0 || !Tid || !Tid->isNumber())
      return validationFail(ErrorOut,
                            "event '" + Name->Str + "' missing ts/tid");
    if (Ph->Str == "X") {
      const json::Value *Dur = E.find("dur");
      if (!Dur || !Dur->isNumber() || Dur->Num < 0)
        return validationFail(ErrorOut,
                              "span '" + Name->Str + "' missing dur");
      SpansByTid[Tid->Num].push_back(SpanIv{Ts->Num, Ts->Num + Dur->Num});
    } else if (Ph->Str == "C") {
      const json::Value *Args = E.find("args");
      if (!Args || !Args->find("value") || !Args->find("value")->isNumber())
        return validationFail(ErrorOut,
                              "counter '" + Name->Str + "' missing value");
    }
  }

  // Per-thread spans must be properly nested: for any two spans on a
  // thread, one contains the other or they are disjoint. Sweep with a
  // stack of enclosing end-times.
  constexpr double EpsUs = 0.0015; // export granularity is 1 ns = 0.001 us
  for (auto &[Tid, Spans] : SpansByTid) {
    std::sort(Spans.begin(), Spans.end(), [](const SpanIv &A, const SpanIv &B) {
      if (A.Start != B.Start)
        return A.Start < B.Start;
      return A.End > B.End; // enclosing span first
    });
    std::vector<double> Stack; // end-times of open spans
    for (const SpanIv &Iv : Spans) {
      while (!Stack.empty() && Stack.back() <= Iv.Start + EpsUs)
        Stack.pop_back();
      if (!Stack.empty() && Iv.End > Stack.back() + EpsUs)
        return validationFail(
            ErrorOut, formatString("partially overlapping spans on tid %g "
                                   "([%.3f, %.3f] vs enclosing end %.3f)",
                                   Tid, Iv.Start, Iv.End, Stack.back()));
      Stack.push_back(Iv.End);
    }
  }

  // Names recorded only in the metadata set (ring wraparound) still count.
  const json::Value *Other = Doc.V.find("otherData");
  if (const json::Value *MetaNames = Other ? Other->find("spanNames") : nullptr)
    if (MetaNames->isArray())
      for (const json::Value &N : MetaNames->Arr)
        if (N.isString())
          Seen.insert(N.Str);

  for (const std::string &Req : RequiredNames)
    if (!Seen.count(Req))
      return validationFail(ErrorOut,
                            "required event '" + Req + "' not present");
  return true;
}
