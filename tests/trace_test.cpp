//===- trace_test.cpp - tracing + JSON export tests -------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Tests for the observability support layer: the JsonLite parser, the
// trace ring buffer and span nesting (including across threads), the
// chrome://tracing JSON exporter, and the shared trace-file validator.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/FileSystem.h"
#include "support/JsonLite.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace proteus;

using proteus_test::TempDir;

namespace {

void writeText(const std::string &Path, const std::string &Text) {
  ASSERT_TRUE(fs::writeFileAtomic(
      Path, std::vector<uint8_t>(Text.begin(), Text.end())));
}

// --- JsonLite ----------------------------------------------------------------

TEST(JsonLiteTest, ParsesScalarsArraysObjects) {
  json::ParseResult R = json::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x\n\"yA"})");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.V.isObject());
  const json::Value *A = R.V.find("a");
  ASSERT_TRUE(A && A->isNumber());
  EXPECT_DOUBLE_EQ(A->Num, 1.5);
  const json::Value *B = R.V.find("b");
  ASSERT_TRUE(B && B->isArray());
  ASSERT_EQ(B->Arr.size(), 3u);
  EXPECT_TRUE(B->Arr[0].isBool() && B->Arr[0].B);
  EXPECT_TRUE(B->Arr[1].isBool() && !B->Arr[1].B);
  EXPECT_TRUE(B->Arr[2].isNull());
  const json::Value *S = R.V.find("s");
  ASSERT_TRUE(S && S->isString());
  EXPECT_EQ(S->Str, "x\n\"yA");
}

TEST(JsonLiteTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").Ok);
  EXPECT_FALSE(json::parse("{").Ok);
  EXPECT_FALSE(json::parse("[1,]").Ok);
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").Ok);
  EXPECT_FALSE(json::parse("{\"a\" 1}").Ok);
  EXPECT_FALSE(json::parse("\"unterminated").Ok);
  EXPECT_FALSE(json::parse("01").Ok) << "leading zeros are not JSON";
  EXPECT_FALSE(json::parse("nul").Ok);
  // Depth bomb must fail cleanly, not crash.
  EXPECT_FALSE(json::parse(std::string(500, '[')).Ok);
}

TEST(JsonLiteTest, ReportsErrorOffset) {
  json::ParseResult R = json::parse("{\"a\": !}");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorOffset, 6u);
}

// --- Metrics -----------------------------------------------------------------

TEST(MetricsTest, RegistryGetOrCreateAndSnapshot) {
  metrics::Registry R;
  R.counter("a").add();
  R.counter("a").add(2);
  R.counter("b").add(5);
  R.timer("t").addSeconds(0.25);
  R.timer("t").addSeconds(0.5);

  auto Counters = R.counterValues();
  ASSERT_EQ(Counters.size(), 2u);
  EXPECT_EQ(Counters[0], (std::pair<std::string, uint64_t>{"a", 3}));
  EXPECT_EQ(Counters[1], (std::pair<std::string, uint64_t>{"b", 5}));
  auto Timers = R.timerValues();
  ASSERT_EQ(Timers.size(), 1u);
  EXPECT_EQ(Timers[0].first, "t");
  EXPECT_NEAR(Timers[0].second, 0.75, 1e-9);

  // Handles are stable: the same instrument is returned for the same name.
  EXPECT_EQ(&R.counter("a"), &R.counter("a"));
  EXPECT_EQ(&R.timer("t"), &R.timer("t"));
}

TEST(MetricsTest, ScopedTimerRecordsOnEveryExitPath) {
  metrics::TimerMetric T;
  auto EarlyReturn = [&](bool Bail) {
    metrics::ScopedTimer S(T);
    if (Bail)
      return 1; // the early-return path must still record
    return 0;
  };
  EXPECT_EQ(EarlyReturn(true), 1);
  double AfterError = T.seconds();
  EXPECT_GT(AfterError, 0.0);
  EXPECT_EQ(EarlyReturn(false), 0);
  EXPECT_GT(T.seconds(), AfterError);
}

// --- Trace recording ---------------------------------------------------------

TEST(TraceTest, DisabledModeRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  size_t Before = trace::recordedEvents();
  {
    trace::Span S("should-not-appear");
    trace::instant("nor-this");
    trace::counterValue("nor-that", 1.0);
  }
  EXPECT_EQ(trace::recordedEvents(), Before);
}

TEST(TraceTest, InternNameIsStable) {
  const char *A = trace::internName("some.span");
  const char *B = trace::internName("some.span");
  EXPECT_EQ(A, B);
  EXPECT_STREQ(A, "some.span");
  EXPECT_NE(A, trace::internName("other.span"));
}

TEST(TraceTest, OutOfRangeBufferSizeWarnsInsteadOfAborting) {
  // PROTEUS_TRACE_BUFFER is read during static initialization of any
  // traced process. A wrapped ("-1"), saturated or merely huge value used
  // to reach the ring allocation and abort the process from there; it must
  // now keep the default capacity and warn. Re-run this binary, traced.
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  ASSERT_GT(Len, 0);
  Self[Len] = '\0';
  TempDir Tmp;
  for (const std::string Bad : {"-1", "99999999999999999999", "16777217"}) {
    SCOPED_TRACE("PROTEUS_TRACE_BUFFER=" + Bad);
    std::string Cmd = "PROTEUS_TRACE='" + Tmp.file("child.json") +
                      "' PROTEUS_TRACE_BUFFER='" + Bad + "' '" + Self +
                      "' --gtest_filter=TraceTest.InternNameIsStable 2>&1";
    FILE *Child = popen(Cmd.c_str(), "r");
    ASSERT_NE(Child, nullptr);
    std::string Output;
    char Buf[512];
    while (size_t N = std::fread(Buf, 1, sizeof(Buf), Child))
      Output.append(Buf, N);
    int Status = pclose(Child);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Output;
    EXPECT_NE(Output.find("proteus: warning: ignoring invalid "
                          "PROTEUS_TRACE_BUFFER value '" +
                          Bad + "' (expected an integer in [1, 16777216])"),
              std::string::npos)
        << Output;
  }
}

TEST(TraceTest, SpansNestAndExportValidates) {
  TempDir Tmp;
  std::string Path = Tmp.file("trace.json");
  trace::start("");
  {
    trace::Span Outer("outer");
    {
      trace::Span Inner("inner");
      trace::instant("tick");
    }
    trace::counterValue("depth.gauge", 2.0);
  }
  trace::stop();
  ASSERT_TRUE(trace::writeJson(Path));

  std::string Err;
  EXPECT_TRUE(trace::validateTraceFile(
      Path, {"outer", "inner", "tick", "depth.gauge"}, &Err))
      << Err;
  EXPECT_FALSE(trace::validateTraceFile(Path, {"never-recorded"}, &Err));
  EXPECT_NE(Err.find("never-recorded"), std::string::npos);

  // The export itself must round-trip through the JSON parser with the
  // nesting depth visible: inner is enclosed by one span, outer by none.
  auto Bytes = fs::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  json::ParseResult Doc = json::parse(std::string_view(
      reinterpret_cast<const char *>(Bytes->data()), Bytes->size()));
  ASSERT_TRUE(Doc.Ok) << Doc.Error;
  const json::Value *Events = Doc.V.find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  double OuterDepth = -1, InnerDepth = -1;
  for (const json::Value &E : Events->Arr) {
    const json::Value *Name = E.find("name");
    const json::Value *Args = E.find("args");
    if (!Name || !Name->isString() || !Args)
      continue;
    const json::Value *Depth = Args->find("depth");
    if (Name->Str == "outer" && Depth)
      OuterDepth = Depth->Num;
    if (Name->Str == "inner" && Depth)
      InnerDepth = Depth->Num;
  }
  EXPECT_EQ(OuterDepth, 0);
  EXPECT_EQ(InnerDepth, 1);
}

TEST(TraceTest, ThreadsGetDistinctTids) {
  TempDir Tmp;
  std::string Path = Tmp.file("threads.json");
  trace::start("");
  auto Work = [] {
    trace::Span S("worker.outer");
    trace::Span T("worker.inner");
  };
  std::thread T1(Work), T2(Work);
  T1.join();
  T2.join();
  trace::stop();
  ASSERT_TRUE(trace::writeJson(Path));

  std::string Err;
  ASSERT_TRUE(trace::validateTraceFile(Path, {"worker.outer"}, &Err)) << Err;

  auto Bytes = fs::readFile(Path);
  ASSERT_TRUE(Bytes.has_value());
  json::ParseResult Doc = json::parse(std::string_view(
      reinterpret_cast<const char *>(Bytes->data()), Bytes->size()));
  ASSERT_TRUE(Doc.Ok) << Doc.Error;
  std::set<double> Tids;
  for (const json::Value &E : Doc.V.find("traceEvents")->Arr) {
    const json::Value *Name = E.find("name");
    if (Name && Name->isString() && Name->Str == "worker.outer")
      Tids.insert(E.find("tid")->Num);
  }
  EXPECT_EQ(Tids.size(), 2u) << "each thread must export its own lane";
}

TEST(TraceTest, RingWraparoundKeepsExportValidAndNamesSurvive) {
  TempDir Tmp;
  std::string Path = Tmp.file("wrap.json");
  trace::start("", /*CapacityEvents=*/4);
  trace::instant("early.event"); // will be overwritten
  for (int I = 0; I != 32; ++I) {
    trace::Span S("late.event");
  }
  trace::stop();
  EXPECT_GT(trace::droppedEvents(), 0u);
  EXPECT_EQ(trace::recordedEvents(), 4u);
  ASSERT_TRUE(trace::writeJson(Path));

  // The early event left the ring but is still present in the metadata name
  // set, so stage-presence validation survives wraparound.
  std::string Err;
  EXPECT_TRUE(
      trace::validateTraceFile(Path, {"early.event", "late.event"}, &Err))
      << Err;
}

TEST(TraceTest, StartResetsPreviousSession) {
  trace::start("", 16);
  trace::instant("stale");
  trace::start("", 16);
  EXPECT_EQ(trace::recordedEvents(), 0u);
  trace::stop();
}

// --- Validator rejections ----------------------------------------------------

TEST(TraceValidateTest, RejectsMissingFileAndBadJson) {
  TempDir Tmp;
  std::string Err;
  EXPECT_FALSE(trace::validateTraceFile(Tmp.file("nope.json"), {}, &Err));

  std::string Bad = Tmp.file("bad.json");
  writeText(Bad, "{\"traceEvents\": [");
  EXPECT_FALSE(trace::validateTraceFile(Bad, {}, &Err));
  EXPECT_NE(Err.find("invalid JSON"), std::string::npos);

  std::string NoEvents = Tmp.file("noevents.json");
  writeText(NoEvents, "{\"otherData\": {}}");
  EXPECT_FALSE(trace::validateTraceFile(NoEvents, {}, &Err));
  EXPECT_NE(Err.find("traceEvents"), std::string::npos);
}

TEST(TraceValidateTest, RejectsPartiallyOverlappingSpans) {
  TempDir Tmp;
  std::string Path = Tmp.file("overlap.json");
  // [0, 10] and [5, 15] on one thread: neither contains the other.
  writeText(Path, R"({"traceEvents":[
    {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
    {"name":"b","ph":"X","pid":1,"tid":1,"ts":5,"dur":10}
  ]})");
  std::string Err;
  EXPECT_FALSE(trace::validateTraceFile(Path, {}, &Err));
  EXPECT_NE(Err.find("overlapping"), std::string::npos);

  // The same intervals on different threads are fine.
  std::string Ok = Tmp.file("two-tids.json");
  writeText(Ok, R"({"traceEvents":[
    {"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":10},
    {"name":"b","ph":"X","pid":1,"tid":2,"ts":5,"dur":10}
  ]})");
  EXPECT_TRUE(trace::validateTraceFile(Ok, {"a", "b"}, &Err)) << Err;
}

TEST(TraceValidateTest, RejectsEventsMissingRequiredFields) {
  TempDir Tmp;
  std::string Err;

  std::string NoDur = Tmp.file("nodur.json");
  writeText(NoDur,
            R"({"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1,"ts":0}]})");
  EXPECT_FALSE(trace::validateTraceFile(NoDur, {}, &Err));
  EXPECT_NE(Err.find("dur"), std::string::npos);

  std::string NoValue = Tmp.file("novalue.json");
  writeText(
      NoValue,
      R"({"traceEvents":[{"name":"c","ph":"C","pid":1,"tid":1,"ts":0,"args":{}}]})");
  EXPECT_FALSE(trace::validateTraceFile(NoValue, {}, &Err));
  EXPECT_NE(Err.find("value"), std::string::npos);

  std::string NoTs = Tmp.file("nots.json");
  writeText(NoTs, R"({"traceEvents":[{"name":"i","ph":"i","pid":1,"tid":1}]})");
  EXPECT_FALSE(trace::validateTraceFile(NoTs, {}, &Err));
}

} // namespace
