//===- Env.h - PROTEUS_* environment-variable table -------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every PROTEUS_* environment variable, declared once in
/// PROTEUS_ENV_KNOBS, and the one reader the configuration structs
/// (JitConfig, DeviceManager::Config, SchedConfig) and the trace activation
/// go through. No other code spells a variable name, range or spelling
/// list.
///
/// An unset variable leaves the default alone and a valid value replaces
/// it. Any other value keeps the default, counts in the process-wide
/// "config.errors" counter and is reported (into the caller's warning
/// list, or on stderr when it is null) as
///
///   ignoring invalid <VAR> value '<value>' (expected <what>)
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_ENV_H
#define PROTEUS_SUPPORT_ENV_H

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {
namespace env {

/// How a knob's value is spelled.
enum class KnobKind : uint8_t {
  Integer,  ///< unsigned decimal in [Lo, Hi]
  Bytes,    ///< unsigned decimal byte count; 0 means unlimited
  Choice,   ///< one of Spellings; a spelling's index is its enum value
  ArchList, ///< Spellings joined by ',', repeats allowed, no empty segment
  Path,     ///< any non-empty string
};

/// X(Id, Name, Kind, Lo, Hi, Spellings, Default). Lo and Hi bound Integer
/// rows. Spellings ('|'-separated) lists Choice and ArchList values in enum
/// order. Default is the value as the environment would spell it; it is
/// empty where leaving the variable unset means something no value spells
/// (a socket derived from the cache directory, tracing off, every device
/// amdgcn-sim). README's environment table is checked against this one.
#define PROTEUS_ENV_KNOBS(X)                                                   \
  X(NoRcf, "PROTEUS_NO_RCF", Choice, 0, 0, "0|1", "0")                         \
  X(NoLaunchBounds, "PROTEUS_NO_LAUNCH_BOUNDS", Choice, 0, 0, "0|1", "0")      \
  X(Async, "PROTEUS_ASYNC", Choice, 0, 0, "sync|fallback", "sync")             \
  X(AsyncWorkers, "PROTEUS_ASYNC_WORKERS", Integer, 1, 1024, "", "4")          \
  X(Tier, "PROTEUS_TIER", Choice, 0, 0, "off|on", "off")                       \
  X(CacheDir, "PROTEUS_CACHE_DIR", Path, 0, 0, "", "proteus-jit-cache")        \
  X(CacheMemLimit, "PROTEUS_CACHE_MEM_LIMIT", Bytes, 0, 0, "", "0")            \
  X(CacheDiskLimit, "PROTEUS_CACHE_DISK_LIMIT", Bytes, 0, 0, "", "0")          \
  X(CachePolicy, "PROTEUS_CACHE_POLICY", Choice, 0, 0, "lru|lfu", "lru")       \
  X(CacheRemote, "PROTEUS_CACHE_REMOTE", Choice, 0, 0, "off|on", "off")        \
  X(CacheSocket, "PROTEUS_CACHE_SOCKET", Path, 0, 0, "", "")                   \
  X(CacheShards, "PROTEUS_CACHE_SHARDS", Integer, 1, 64, "", "1")              \
  X(Analyze, "PROTEUS_ANALYZE", Choice, 0, 0, "off|warn|error", "warn")        \
  X(VerifyEach, "PROTEUS_VERIFY_EACH", Choice, 0, 0, "0|1", "0")               \
  X(NumDevices, "PROTEUS_NUM_DEVICES", Integer, 1, 64, "", "1")                \
  X(DefaultStreams, "PROTEUS_DEFAULT_STREAMS", Integer, 1, 256, "", "1")       \
  X(DeviceArchs, "PROTEUS_DEVICE_ARCHS", ArchList, 0, 0,                       \
    "amdgcn-sim|nvptx-sim", "")                                                \
  X(Sched, "PROTEUS_SCHED", Choice, 0, 0, "off|static|perf|load", "off")       \
  X(Trace, "PROTEUS_TRACE", Path, 0, 0, "", "")                                \
  X(TraceBuffer, "PROTEUS_TRACE_BUFFER", Integer, 1, 16777216, "", "262144")   \
  X(Capture, "PROTEUS_CAPTURE", Choice, 0, 0, "off|on", "off")                 \
  X(CaptureDir, "PROTEUS_CAPTURE_DIR", Path, 0, 0, "", "proteus-captures")     \
  X(CaptureRing, "PROTEUS_CAPTURE_RING", Integer, 1, 65536, "", "64")          \
  X(CaptureDedup, "PROTEUS_CAPTURE_DEDUP", Choice, 0, 0, "off|on", "on")       \
  X(TuneBudget, "PROTEUS_TUNE_BUDGET", Integer, 1, 256, "", "8")               \
  X(Policy, "PROTEUS_POLICY", Choice, 0, 0, "off|on", "off")

enum class Knob : uint8_t {
#define PROTEUS_ENV_KNOB_ID(Id, ...) Id,
  PROTEUS_ENV_KNOBS(PROTEUS_ENV_KNOB_ID)
#undef PROTEUS_ENV_KNOB_ID
};

/// One row of PROTEUS_ENV_KNOBS.
struct KnobInfo {
  const char *Name;
  KnobKind Kind;
  uint64_t Lo, Hi;
  std::string_view Spellings;
  std::string_view Default;
};

inline constexpr KnobInfo Knobs[] = {
#define PROTEUS_ENV_KNOB_INFO(Id, Name, Kind, Lo, Hi, Spellings, Default)     \
  {Name, KnobKind::Kind, Lo, Hi, Spellings, Default},
    PROTEUS_ENV_KNOBS(PROTEUS_ENV_KNOB_INFO)
#undef PROTEUS_ENV_KNOB_INFO
};

constexpr const KnobInfo &info(Knob K) {
  return Knobs[static_cast<size_t>(K)];
}

/// Checked unsigned decimal: digits only (no sign, space or prefix) whose
/// value fits in 64 bits. strtoull would wrap "-1" and saturate an
/// over-long value instead of rejecting them.
constexpr bool parseDecimal(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t N = 0;
  for (char C : S) {
    unsigned Digit = static_cast<unsigned char>(C) - '0';
    if (Digit > 9 || N > (UINT64_MAX - Digit) / 10)
      return false;
    N = N * 10 + Digit;
  }
  Out = N;
  return true;
}

/// Index of \p S among the spellings of \p K, or -1.
constexpr int spellingIndex(Knob K, std::string_view S) {
  std::string_view Rest = info(K).Spellings;
  for (int Index = 0; !Rest.empty(); ++Index) {
    size_t Bar = std::min(Rest.find('|'), Rest.size());
    if (Rest.substr(0, Bar) == S)
      return Index;
    Rest.remove_prefix(std::min(Bar + 1, Rest.size()));
  }
  return -1;
}

/// Parses \p S as a value of Integer, Bytes or Choice knob \p K (a Choice
/// yields its spelling's index). \p Out is left alone on failure.
constexpr bool parseNumber(Knob K, std::string_view S, uint64_t &Out) {
  const KnobInfo &I = info(K);
  int Index = spellingIndex(K, S);
  uint64_t V = static_cast<uint64_t>(Index);
  if (I.Kind == KnobKind::Choice ? Index < 0
                                 : !parseDecimal(S, V) ||
                                       (I.Kind == KnobKind::Integer &&
                                        (V < I.Lo || V > I.Hi)))
    return false;
  Out = V;
  return true;
}

/// The default of Integer, Bytes or Choice knob \p K as a read stores it,
/// for the configuration structs' member initializers: each default is
/// written only in the table, and one its row rejects fails to compile.
template <typename T = uint64_t> consteval T defaultOf(Knob K) {
  uint64_t V = 0;
  if (!parseNumber(K, info(K).Default, V))
    throw "the row's default is not a valid value of the row";
  return static_cast<T>(V);
}

/// Rejects a set retired variable (PROTEUS_CACHE_BUDGET, PROTEUS_TUNE) like
/// an invalid value; JitConfig::fromEnvironment calls this.
void rejectRetired(std::vector<std::string> *Warnings);

/// The spellings of \p K in enum order (empty for other kinds); the mode
/// names (asyncModeName, schedModeName, ...) come from here.
const std::vector<std::string> &spellings(Knob K);

/// Reads Integer, Bytes or Choice knob \p K into \p Out (a Choice yields its
/// spelling's index). Returns whether \p Out was set.
bool readNumber(Knob K, uint64_t &Out, std::vector<std::string> *Warnings);

/// Reads ArchList knob \p K as spelling indices. Returns whether \p Out was
/// set.
bool read(Knob K, std::vector<unsigned> &Out,
          std::vector<std::string> *Warnings);

/// Reads Path knob \p K. Returns whether \p Out was set.
bool read(Knob K, std::string &Out, std::vector<std::string> *Warnings);

template <typename T>
bool read(Knob K, T &Out, std::vector<std::string> *Warnings) {
  uint64_t V = 0;
  if (!readNumber(K, V, Warnings))
    return false;
  Out = static_cast<T>(V);
  return true;
}

} // namespace env
} // namespace proteus

#endif // PROTEUS_SUPPORT_ENV_H
