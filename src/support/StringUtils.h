//===- StringUtils.h - string formatting helpers ---------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting and tokenizing helpers shared by the IR printer/parser and the
/// benchmark report writers.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_STRINGUTILS_H
#define PROTEUS_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace proteus {

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// isspace in the C locale: space, \t, \n, \v, \f and \r.
constexpr bool isSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}

/// Strips ASCII whitespace (isSpace) from both ends.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// True if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Formats a double so that it round-trips exactly through the IR parser.
std::string formatDouble(double V);

/// Formats a byte count as a human-readable "5.9KB"-style string (used in
/// the Table 3 reproduction).
std::string formatByteSize(uint64_t Bytes);

} // namespace proteus

#endif // PROTEUS_SUPPORT_STRINGUTILS_H
