//===- Env.cpp - PROTEUS_* environment-variable parsing --------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"

#include "support/Metrics.h"

#include <cstdio>

using namespace proteus;

void proteus::emitConfigWarning(std::vector<std::string> *Warnings,
                                std::string Msg) {
  metrics::processRegistry().counter("config.errors").add();
  if (Warnings)
    Warnings->push_back(std::move(Msg));
  else
    std::fprintf(stderr, "proteus: warning: %s\n", Msg.c_str());
}

void proteus::rejectConfigValue(std::vector<std::string> *Warnings,
                                const char *Var, std::string_view Value,
                                std::string_view Expected) {
  emitConfigWarning(Warnings, "ignoring invalid " + std::string(Var) +
                                  " value '" + std::string(Value) +
                                  "' (expected " + std::string(Expected) +
                                  ")");
}

bool proteus::parseBounded(const char *Var, uint64_t Lo, uint64_t Hi,
                           uint64_t &Out, std::vector<std::string> *Warnings,
                           std::string_view Expected) {
  const char *S = std::getenv(Var);
  if (!S)
    return false;
  // Checked accumulation: strtoull would wrap "-1" and saturate an
  // over-long value instead of rejecting them.
  uint64_t N = 0;
  bool Ok = *S != '\0';
  for (const char *P = S; Ok && *P; ++P) {
    unsigned Digit = static_cast<unsigned char>(*P) - '0';
    Ok = Digit <= 9 && N <= (UINT64_MAX - Digit) / 10;
    N = N * 10 + Digit;
  }
  if (Ok && N >= Lo && N <= Hi) {
    Out = N;
    return true;
  }
  std::string Range = "an integer in [" + std::to_string(Lo) + ", " +
                      std::to_string(Hi) + "]";
  rejectConfigValue(Warnings, Var, S, Expected.empty() ? Range : Expected);
  return false;
}
