//===- env_test.cpp - PROTEUS_* knob table tests --------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// One table-driven test over every row of PROTEUS_ENV_KNOBS (support/Env.h):
// an unset variable keeps the default silently, each valid spelling or
// bound reaches the row's own config field silently and leaves every other
// field at its default, each invalid value (for a range, both neighbours)
// gives one standard warning and one counted config error and keeps the
// default, and the default spelling reproduces a default-constructed
// configuration. A retired spelling or a set retired variable is rejected
// the same way. EnvReadmeTest (the env_readme_check ctest) requires
// README's environment table to list exactly the table's variables with
// the table's values.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gpu/DeviceManager.h"
#include "jit/JitRuntime.h"
#include "sched/Scheduler.h"
#include "support/Env.h"
#include "support/FileSystem.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <deque>
#include <map>

using namespace proteus;
using namespace proteus::env;
using namespace proteus_test;

namespace {

/// Every configuration the table feeds, read in one go.
struct Configs {
  JitConfig Jit;
  gpu::DeviceManager::Config Devices;
  sched::SchedConfig Sched;

  bool operator==(const Configs &) const = default;
};

Configs readConfigs(std::vector<std::string> *Warnings) {
  return {JitConfig::fromEnvironment(Warnings),
          gpu::DeviceManager::configFromEnvironment(Warnings),
          sched::SchedConfig::fromEnvironment(Warnings)};
}

uint64_t configErrors() {
  return metrics::processRegistry().counter("config.errors").value();
}

/// Unsets every knob, and every retired variable, for the scope.
struct CleanEnv {
  std::deque<ScopedEnv> Vars;
  CleanEnv() {
    for (const KnobInfo &K : Knobs)
      Vars.emplace_back(K.Name, nullptr);
    for (const RetiredKnob &R : RetiredKnobs)
      Vars.emplace_back(R.Name, nullptr);
  }
};

template <typename T> std::string number(T V) {
  return std::to_string(static_cast<uint64_t>(V));
}

std::string indices(const std::vector<GpuArch> &Archs) {
  std::string Out;
  for (GpuArch A : Archs)
    Out += (Out.empty() ? "" : ",") + number(A);
  return Out;
}

/// The configuration field a row feeds: Render shows it as readBack shows
/// the value read, Reset puts the default back.
struct Field {
  Knob K;
  std::string (*Render)(const Configs &);
  void (*Reset)(Configs &);
};

#define PROTEUS_FIELD(Id, Member, Rendered)                                    \
  Field {                                                                      \
    Knob::Id, [](const Configs &C) { return std::string(Rendered); },         \
        [](Configs &C) { C.Member = Configs().Member; }                        \
  }
const Field Fields[] = {
    PROTEUS_FIELD(NoRcf, Jit.EnableRCF, C.Jit.EnableRCF ? "0" : "1"),
    PROTEUS_FIELD(NoLaunchBounds, Jit.EnableLaunchBounds,
                  C.Jit.EnableLaunchBounds ? "0" : "1"),
    PROTEUS_FIELD(Async, Jit.Async, number(C.Jit.Async)),
    PROTEUS_FIELD(AsyncWorkers, Jit.AsyncWorkers, number(C.Jit.AsyncWorkers)),
    PROTEUS_FIELD(Tier, Jit.Tier, number(C.Jit.Tier)),
    PROTEUS_FIELD(CacheDir, Jit.CacheDir, C.Jit.CacheDir),
    PROTEUS_FIELD(CacheMemLimit, Jit.Limits.MaxMemoryBytes,
                  number(C.Jit.Limits.MaxMemoryBytes)),
    PROTEUS_FIELD(CacheDiskLimit, Jit.Limits.MaxPersistentBytes,
                  number(C.Jit.Limits.MaxPersistentBytes)),
    PROTEUS_FIELD(CachePolicy, Jit.Limits.Policy, number(C.Jit.Limits.Policy)),
    PROTEUS_FIELD(CacheRemote, Jit.CacheRemote, number(C.Jit.CacheRemote)),
    PROTEUS_FIELD(CacheSocket, Jit.CacheSocket, C.Jit.CacheSocket),
    PROTEUS_FIELD(Analyze, Jit.Analyze, number(C.Jit.Analyze)),
    PROTEUS_FIELD(VerifyEach, Jit.VerifyEachPass, number(C.Jit.VerifyEachPass)),
    PROTEUS_FIELD(NumDevices, Devices.NumDevices, number(C.Devices.NumDevices)),
    PROTEUS_FIELD(DefaultStreams, Devices.StreamsPerDevice,
                  number(C.Devices.StreamsPerDevice)),
    PROTEUS_FIELD(DeviceArchs, Devices.Archs, indices(C.Devices.Archs)),
    PROTEUS_FIELD(Sched, Sched.Mode, number(C.Sched.Mode)),
    PROTEUS_FIELD(Capture, Jit.Capture, number(C.Jit.Capture)),
    PROTEUS_FIELD(CaptureDir, Jit.CaptureDir, C.Jit.CaptureDir),
    PROTEUS_FIELD(CaptureRing, Jit.CaptureRing, number(C.Jit.CaptureRing)),
    PROTEUS_FIELD(CaptureDedup, Jit.CaptureDedup, number(C.Jit.CaptureDedup)),
    PROTEUS_FIELD(TuneBudget, Jit.TuneBudget, number(C.Jit.TuneBudget)),
    PROTEUS_FIELD(Policy, Jit.Policy, number(C.Jit.Policy)),
};
#undef PROTEUS_FIELD

/// The trace rows are read once, when the process loads, not by a config
/// struct; only env::read observes them here.
bool readAtLoad(Knob K) { return K == Knob::Trace || K == Knob::TraceBuffer; }

const Field *fieldOf(Knob K) {
  for (const Field &F : Fields)
    if (F.K == K)
      return &F;
  return nullptr;
}

/// Valid values of \p K, each with the outcome env::read must report: the
/// number (Integer, Bytes), spelling index (Choice) or joined spelling
/// indices (ArchList); Path values read back as themselves.
std::vector<std::pair<std::string, std::string>> validValues(Knob Id) {
  const KnobInfo &K = info(Id);
  const std::vector<std::string> &S = spellings(Id);
  std::vector<std::pair<std::string, std::string>> Out;
  switch (K.Kind) {
  case KnobKind::Integer:
    for (uint64_t V : {K.Lo, K.Hi})
      Out.emplace_back(std::to_string(V), std::to_string(V));
    break;
  case KnobKind::Bytes:
    for (const char *V : {"0", "4096", "18446744073709551615"})
      Out.emplace_back(V, V);
    break;
  case KnobKind::Choice:
    for (size_t I = 0; I != S.size(); ++I)
      Out.emplace_back(S[I], std::to_string(I));
    break;
  case KnobKind::ArchList: {
    std::string All, Indices;
    for (size_t I = 0; I != S.size(); ++I) {
      Out.emplace_back(S[I], std::to_string(I));
      All += (I ? "," : "") + S[I];
      Indices += (I ? "," : "") + std::to_string(I);
    }
    Out.emplace_back(All + "," + S[0], Indices + ",0");
    break;
  }
  case KnobKind::Path:
    Out.emplace_back("some dir/x", "some dir/x");
    if (!K.Default.empty())
      Out.emplace_back(std::string(K.Default), std::string(K.Default));
    break;
  }
  return Out;
}

/// Values of \p K that must be rejected: for Integer rows both neighbours
/// of the range.
std::vector<std::string> invalidValues(Knob Id) {
  const KnobInfo &K = info(Id);
  switch (K.Kind) {
  case KnobKind::Integer:
    if (K.Lo > 0)
      return {std::to_string(K.Lo - 1), std::to_string(K.Hi + 1)};
    return {std::to_string(K.Hi + 1)};
  case KnobKind::Bytes:
    return {"-1"};
  case KnobKind::Choice:
    return {"bogus"};
  case KnobKind::ArchList:
    return {spellings(Id)[0] + ","};
  case KnobKind::Path:
    return {""};
  }
  return {};
}

/// env::read of \p K rendered as in validValues, or "unset" when it
/// reported nothing.
std::string readBack(Knob K, std::vector<std::string> *Warnings) {
  std::string Path;
  std::vector<unsigned> List;
  uint64_t Number = 0;
  switch (info(K).Kind) {
  case KnobKind::Path:
    return read(K, Path, Warnings) ? Path : "unset";
  case KnobKind::ArchList: {
    if (!read(K, List, Warnings))
      return "unset";
    std::string Out;
    for (unsigned I : List)
      Out += (Out.empty() ? "" : ",") + std::to_string(I);
    return Out;
  }
  default:
    return read(K, Number, Warnings) ? std::to_string(Number) : "unset";
  }
}

TEST(EnvKnobTest, EveryRowFollowsTheContract) {
  CleanEnv Clean;
  std::vector<std::string> Warnings;
  EXPECT_EQ(readConfigs(&Warnings), Configs{}) << "unset keeps defaults";
  EXPECT_TRUE(Warnings.empty());

  for (size_t Row = 0; Row != std::size(Knobs); ++Row) {
    const Knob K = static_cast<Knob>(Row);
    const KnobInfo &I = Knobs[Row];
    SCOPED_TRACE(I.Name);
    const Field *F = fieldOf(K);
    ASSERT_EQ(F == nullptr, readAtLoad(K)) << "a config row needs a Field";
    const uint64_t Errors = configErrors();
    EXPECT_EQ(readBack(K, &Warnings), "unset");

    for (const auto &[Value, Expected] : validValues(K)) {
      SCOPED_TRACE("value '" + Value + "'");
      ScopedEnv Set(I.Name, Value.c_str());
      EXPECT_EQ(readBack(K, &Warnings), Expected);
      if (!F)
        continue;
      Configs Got = readConfigs(&Warnings);
      const bool IsDefault = Value == I.Default;
      EXPECT_EQ(Got == Configs{}, IsDefault)
          << (IsDefault ? "the default spelling must reproduce the defaults"
                        : "a valid value must reach its config field");
      EXPECT_EQ(F->Render(Got), Expected) << "the row's own field";
      F->Reset(Got);
      EXPECT_EQ(Got, Configs{}) << "every other field keeps its default";
    }
    EXPECT_TRUE(Warnings.empty()) << Warnings.front();
    EXPECT_EQ(configErrors(), Errors) << "valid values count no error";

    uint64_t Rejections = 0;
    for (const std::string &Bad : invalidValues(K)) {
      SCOPED_TRACE("value '" + Bad + "'");
      ScopedEnv Set(I.Name, Bad.c_str());
      std::vector<std::string> Rejected;
      if (F)
        EXPECT_EQ(readConfigs(&Rejected), Configs{}) << "default kept";
      else
        EXPECT_EQ(readBack(K, &Rejected), "unset");
      ASSERT_EQ(Rejected.size(), 1u);
      EXPECT_TRUE(startsWith(Rejected[0], "ignoring invalid " +
                                              std::string(I.Name) +
                                              " value '" + Bad +
                                              "' (expected "))
          << Rejected[0];
      EXPECT_EQ(Rejected[0].back(), ')');
      EXPECT_EQ(configErrors(), Errors + ++Rejections);
    }
  }
}

TEST(EnvKnobTest, SpellingIndexIsTheEnumValue) {
  auto Check = [](Knob K, auto Name) {
    const std::vector<std::string> &S = spellings(K);
    for (size_t I = 0; I != S.size(); ++I)
      EXPECT_EQ(S[I], Name(I)) << info(K).Name;
  };
  Check(Knob::Async, [](size_t I) {
    return asyncModeName(static_cast<JitConfig::AsyncMode>(I));
  });
  Check(Knob::Analyze, [](size_t I) {
    return analyzeModeName(static_cast<JitConfig::AnalyzeMode>(I));
  });
  Check(Knob::Tier, [](size_t I) { return tierModeName(I != 0); });
  Check(Knob::Sched, [](size_t I) {
    return sched::schedModeName(static_cast<sched::SchedMode>(I));
  });
  Check(Knob::DeviceArchs,
        [](size_t I) { return gpuArchName(static_cast<GpuArch>(I)); });
  EXPECT_EQ(spellingIndex(Knob::CachePolicy, "lfu"),
            static_cast<int>(fleet::EvictPolicy::LFU));
}

TEST(EnvKnobTest, RetiredSpellingsAreRejected) {
  CleanEnv Clean;
  std::vector<std::pair<const char *, const char *>> Retired = {
      {"PROTEUS_ASYNC", "block"}, {"PROTEUS_CACHE_POLICY", "runtime"}};
  for (const RetiredKnob &R : RetiredKnobs)
    Retired.emplace_back(R.Name, "4");
  for (auto [Var, Value] : Retired) {
    ScopedEnv Set(Var, Value);
    const uint64_t Errors = configErrors();
    std::vector<std::string> Warnings;
    EXPECT_EQ(readConfigs(&Warnings), Configs{}) << Var;
    ASSERT_EQ(Warnings.size(), 1u) << Var;
    EXPECT_TRUE(startsWith(Warnings[0], "ignoring invalid " +
                                            std::string(Var) + " value '" +
                                            Value + "' (expected "))
        << Warnings[0];
    EXPECT_EQ(configErrors(), Errors + 1) << Var;
  }
  // The store is one flat directory now; a shard count still set in a
  // deployment's environment is reported, not silently dropped.
  ScopedEnv Shards("PROTEUS_CACHE_SHARDS", "4");
  std::vector<std::string> Warnings;
  JitConfig::fromEnvironment(&Warnings);
  EXPECT_EQ(Warnings, std::vector<std::string>{
                          "ignoring invalid PROTEUS_CACHE_SHARDS value '4' "
                          "(expected unset; the variable is retired)"});
}

TEST(EnvKnobTest, ZeroKeepsRcfAndLaunchBoundsOn) {
  ScopedEnv NoRcf("PROTEUS_NO_RCF", "0");
  ScopedEnv NoLb("PROTEUS_NO_LAUNCH_BOUNDS", "0");
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_TRUE(C.EnableRCF);
  EXPECT_TRUE(C.EnableLaunchBounds);
  EXPECT_TRUE(Warnings.empty());
}

TEST(EnvKnobTest, EmptyCacheDirWarnsAndKeepsTheDefault) {
  ScopedEnv Dir("PROTEUS_CACHE_DIR", "");
  std::vector<std::string> Warnings;
  JitConfig C = JitConfig::fromEnvironment(&Warnings);
  EXPECT_EQ(C.CacheDir, JitConfig().CacheDir);
  EXPECT_EQ(Warnings.size(), 1u);
}

TEST(EnvKnobTest, ParseDecimalIsChecked) {
  uint64_t V = 7;
  for (const char *Bad : {"", "-1", "+5", " 5", "5 ", "0x10", "12abc",
                          "18446744073709551616", "99999999999999999999"})
    EXPECT_FALSE(parseDecimal(Bad, V)) << "'" << Bad << "'";
  EXPECT_EQ(V, 7u);
  EXPECT_TRUE(parseDecimal("0001", V));
  EXPECT_EQ(V, 1u);
  EXPECT_TRUE(parseDecimal("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

// --- README's environment table ----------------------------------------------

/// The README "Values" cell for \p Id.
std::string describe(Knob Id) {
  const KnobInfo &K = info(Id);
  std::string Choices;
  for (const std::string &S : spellings(Id))
    Choices += (Choices.empty() ? "`" : " \\| `") + S + "`";
  std::string Default = K.Default.empty()
                            ? "unset"
                            : "`" + std::string(K.Default) + "`";
  switch (K.Kind) {
  case KnobKind::Integer:
    return std::to_string(K.Lo) + ".." + std::to_string(K.Hi) +
           " (default " + std::string(K.Default) + ")";
  case KnobKind::Bytes:
    return "bytes, 0 = unlimited (default " + std::string(K.Default) + ")";
  case KnobKind::Choice:
    return Choices + " (default " + Default + ")";
  case KnobKind::ArchList:
    return "comma list of " + Choices + " (default " + Default + ")";
  case KnobKind::Path:
    return "path (default " + Default + ")";
  }
  return "";
}

/// Splits a markdown table row at its unescaped '|' separators.
std::vector<std::string> cells(std::string_view Line) {
  std::vector<std::string> Out;
  std::string Cell;
  for (size_t I = 0; I != Line.size(); ++I) {
    if (Line[I] == '|' && (I == 0 || Line[I - 1] != '\\')) {
      Out.emplace_back(trim(Cell));
      Cell.clear();
    } else {
      Cell += Line[I];
    }
  }
  return Out;
}

TEST(EnvReadmeTest, TableMatchesTheKnobTable) {
  std::optional<std::vector<uint8_t>> Bytes = fs::readFile(PROTEUS_README);
  ASSERT_TRUE(Bytes.has_value()) << PROTEUS_README;
  std::map<std::string, std::string> Readme;
  for (std::string_view Line :
       split(std::string_view(reinterpret_cast<const char *>(Bytes->data()),
                              Bytes->size()),
             '\n')) {
    if (!startsWith(Line, "| `PROTEUS_"))
      continue;
    std::vector<std::string> C = cells(Line);
    ASSERT_GE(C.size(), 3u) << Line;
    std::string Name = C[1].substr(1, C[1].size() - 2);
    EXPECT_TRUE(Readme.emplace(Name, C[2]).second) << "duplicate " << Name;
  }
  for (size_t Row = 0; Row != std::size(Knobs); ++Row) {
    const char *Name = Knobs[Row].Name;
    const std::string Values = describe(static_cast<Knob>(Row));
    auto It = Readme.find(Name);
    if (It == Readme.end()) {
      ADD_FAILURE() << "README lacks a row for " << Name << ": | `" << Name
                    << "` | " << Values << " | ... |";
      continue;
    }
    EXPECT_EQ(It->second, Values) << Name;
    Readme.erase(It);
  }
  for (const auto &[Name, Values] : Readme)
    ADD_FAILURE() << "README documents " << Name
                  << ", which is not in the knob table";
}

} // namespace
