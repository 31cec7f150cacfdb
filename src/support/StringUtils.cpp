//===- StringUtils.cpp - string formatting helpers ------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>

using namespace proteus;

std::string proteus::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Size < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Out(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

std::string_view proteus::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> proteus::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Pos = 0;
  for (;;) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos) {
      Parts.push_back(S.substr(Pos));
      return Parts;
    }
    Parts.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}

bool proteus::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

std::string proteus::formatDouble(double V) {
  // %.17g guarantees a round-trip for IEEE doubles.
  std::string S = formatString("%.17g", V);
  // Make sure integral values still look like floating point to the lexer.
  if (S.find_first_of(".eEnN") == std::string::npos)
    S += ".0";
  return S;
}

std::string proteus::formatByteSize(uint64_t Bytes) {
  if (Bytes < 1024)
    return formatString("%lluB", static_cast<unsigned long long>(Bytes));
  double KB = static_cast<double>(Bytes) / 1024.0;
  if (KB < 1024.0)
    return formatString("%.1fKB", KB);
  return formatString("%.1fMB", KB / 1024.0);
}
