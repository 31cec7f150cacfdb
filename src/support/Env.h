//===- Env.h - PROTEUS_* environment-variable parsing -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The warn-don't-coerce contract every PROTEUS_* knob follows. An unset
/// variable leaves the default alone and a valid value replaces it. Any
/// other value keeps the default, is reported as
///
///   ignoring invalid <VAR> value '<value>' (expected <what>)
///
/// (appended to the caller's warning list, or printed to stderr as
/// "proteus: warning: ..." when the list is null) and is counted in the
/// process-wide "config.errors" counter, so tests and CI can assert that no
/// configuration mistake slipped through silently.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_ENV_H
#define PROTEUS_SUPPORT_ENV_H

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace proteus {

/// Reports one rejected configuration value: counts it in "config.errors",
/// then appends \p Msg to \p Warnings, or prints it when \p Warnings is null.
void emitConfigWarning(std::vector<std::string> *Warnings, std::string Msg);

/// emitConfigWarning with the standard message for variable \p Var.
void rejectConfigValue(std::vector<std::string> *Warnings, const char *Var,
                       std::string_view Value, std::string_view Expected);

/// Reads the unsigned decimal variable \p Var into \p Out. Accepts only
/// digits (no sign, space or prefix) whose value fits in 64 bits and lies in
/// [\p Lo, \p Hi]. \p Expected describes the accepted values in the warning
/// and defaults to "an integer in [Lo, Hi]". Returns whether \p Out was set.
bool parseBounded(const char *Var, uint64_t Lo, uint64_t Hi, uint64_t &Out,
                  std::vector<std::string> *Warnings,
                  std::string_view Expected = {});

template <typename T>
bool parseBounded(const char *Var, uint64_t Lo, uint64_t Hi, T &Out,
                  std::vector<std::string> *Warnings,
                  std::string_view Expected = {}) {
  uint64_t V = 0;
  if (!parseBounded(Var, Lo, Hi, V, Warnings, Expected))
    return false;
  Out = static_cast<T>(V);
  return true;
}

/// Reads variable \p Var, which must spell one of \p Choices exactly, into
/// \p Out. \p Expected defaults to the spellings joined by '|'. Returns
/// whether \p Out was set.
template <typename T>
bool parseChoice(const char *Var,
                 std::initializer_list<std::pair<std::string_view, T>> Choices,
                 T &Out, std::vector<std::string> *Warnings,
                 std::string_view Expected = {}) {
  const char *S = std::getenv(Var);
  if (!S)
    return false;
  std::string Spellings;
  for (const auto &[Name, Value] : Choices) {
    if (Name == S) {
      Out = Value;
      return true;
    }
    if (!Spellings.empty())
      Spellings += '|';
    Spellings += Name;
  }
  rejectConfigValue(Warnings, Var, S, Expected.empty() ? Spellings : Expected);
  return false;
}

} // namespace proteus

#endif // PROTEUS_SUPPORT_ENV_H
