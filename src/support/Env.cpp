//===- Env.cpp - PROTEUS_* environment-variable table ---------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace proteus;
using namespace proteus::env;

namespace {

/// What the warning says a valid value of \p K looks like.
std::string expected(const KnobInfo &K) {
  switch (K.Kind) {
  case KnobKind::Integer:
    return "an integer in [" + std::to_string(K.Lo) + ", " +
           std::to_string(K.Hi) + "]";
  case KnobKind::Bytes:
    return "a byte count";
  case KnobKind::Choice:
    return std::string(K.Spellings);
  case KnobKind::ArchList:
    return "a comma-separated list of " + std::string(K.Spellings);
  case KnobKind::Path:
    return "a non-empty path";
  }
  return {};
}

/// Counts the rejected \p Value of \p Name in "config.errors" and reports
/// it in the standard form, into \p Warnings or (when null) on stderr.
/// Returns false, the reader's result.
bool reject(std::string_view Name, std::string_view Value,
            const std::string &Expected, std::vector<std::string> *Warnings) {
  std::string Msg = "ignoring invalid " + std::string(Name) + " value '" +
                    std::string(Value) + "' (expected " + Expected + ")";
  metrics::processRegistry().counter("config.errors").add();
  if (Warnings)
    Warnings->push_back(std::move(Msg));
  else
    std::fprintf(stderr, "proteus: warning: %s\n", Msg.c_str());
  return false;
}

} // namespace

const std::vector<std::string> &env::spellings(Knob K) {
  static const std::vector<std::vector<std::string>> Rows = [] {
    std::vector<std::vector<std::string>> Out;
    for (const KnobInfo &I : Knobs) {
      Out.emplace_back();
      if (!I.Spellings.empty())
        for (std::string_view S : split(I.Spellings, '|'))
          Out.back().emplace_back(S);
    }
    return Out;
  }();
  return Rows[static_cast<size_t>(K)];
}

bool env::readNumber(Knob K, uint64_t &Out,
                     std::vector<std::string> *Warnings) {
  const KnobInfo &I = info(K);
  assert(I.Kind != KnobKind::ArchList && I.Kind != KnobKind::Path);
  const char *S = std::getenv(I.Name);
  if (!S)
    return false;
  if (!parseNumber(K, S, Out))
    return reject(I.Name, S, expected(I), Warnings);
  return true;
}

bool env::read(Knob K, std::vector<unsigned> &Out,
               std::vector<std::string> *Warnings) {
  const KnobInfo &I = info(K);
  assert(I.Kind == KnobKind::ArchList);
  const char *S = std::getenv(I.Name);
  if (!S)
    return false;
  // split() keeps empty fields, so a leading, trailing or doubled comma
  // (and the empty value) shows up as an empty segment and rejects the
  // whole value, as does an unknown name.
  std::vector<unsigned> Indices;
  for (std::string_view Segment : split(S, ',')) {
    int Index = spellingIndex(K, Segment);
    if (Index < 0)
      return reject(I.Name, S, expected(I), Warnings);
    Indices.push_back(static_cast<unsigned>(Index));
  }
  Out = std::move(Indices);
  return true;
}

bool env::read(Knob K, std::string &Out, std::vector<std::string> *Warnings) {
  const KnobInfo &I = info(K);
  assert(I.Kind == KnobKind::Path);
  const char *S = std::getenv(I.Name);
  if (!S)
    return false;
  if (!*S)
    return reject(I.Name, S, expected(I), Warnings);
  Out = S;
  return true;
}

void env::rejectRetired(std::vector<std::string> *Warnings) {
  for (auto [Name, Instead] :
       {std::pair{"PROTEUS_CACHE_BUDGET", ", set PROTEUS_CACHE_DISK_LIMIT"},
        std::pair{"PROTEUS_TUNE", ""}})
    if (const char *S = std::getenv(Name))
      reject(Name, S, std::string("unset; the variable is retired") + Instead,
             Warnings);
}
