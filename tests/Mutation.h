//===- Mutation.h - seeded mutation engine for decoder tests ----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded mutations of text (PTX) and bytes (bitcode), and the golden-file
/// sweep that pins a decoder's verdict on each mutant. A sweep computes one
/// verdict line per mutant index; the first GoldenCount lines must match the
/// golden file, and PROTEUS_FUZZ_ITERS widens the sweep past them (the extra
/// mutants only have to decode without a crash or sanitizer report).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TESTS_MUTATION_H
#define PROTEUS_TESTS_MUTATION_H

#include "RandomKernel.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

namespace proteus_test {

const char *const TextMutationKinds[] = {"flip",     "digit",    "drop-token",
                                         "dup-token", "truncate", "dup-line",
                                         "drop-line"};

/// Applies text mutation \p Kind (an index into TextMutationKinds) to
/// \p Text at positions drawn from \p R.
inline void mutateText(std::string &Text, unsigned Kind, Rng &R) {
  if (Text.empty())
    return;
  size_t Pos = R.below(static_cast<uint32_t>(Text.size()));
  auto tokenAt = [&](size_t P) {
    size_t B = P, E = P;
    while (B > 0 && Text[B - 1] != ' ' && Text[B - 1] != '\n')
      --B;
    while (E < Text.size() && Text[E] != ' ' && Text[E] != '\n')
      ++E;
    return std::make_pair(B, E);
  };
  auto lineAt = [&](size_t P) {
    size_t B = Text.rfind('\n', P == 0 ? 0 : P - 1);
    B = B == std::string::npos || P == 0 ? 0 : B + 1;
    size_t E = Text.find('\n', P);
    return std::make_pair(B, E == std::string::npos ? Text.size() : E + 1);
  };
  switch (Kind) {
  case 0: // flip one bit
    Text[Pos] = static_cast<char>(Text[Pos] ^ (1 << R.below(8)));
    break;
  case 1: { // replace, delete or insert a digit
    size_t D = Text.find_first_of("0123456789", Pos);
    if (D == std::string::npos)
      D = Pos;
    char Digit = static_cast<char>('0' + R.below(10));
    switch (R.below(3)) {
    case 0:
      Text[D] = Digit;
      break;
    case 1:
      Text.erase(D, 1);
      break;
    default:
      Text.insert(Text.begin() + static_cast<long>(D), Digit);
      break;
    }
    break;
  }
  case 2: { // drop a token
    auto [B, E] = tokenAt(Pos);
    Text.erase(B, E - B);
    break;
  }
  case 3: { // duplicate a token
    auto [B, E] = tokenAt(Pos);
    Text.insert(E, " " + Text.substr(B, E - B));
    break;
  }
  case 4: // truncate
    Text.resize(Pos);
    break;
  case 5: { // duplicate a line
    auto [B, E] = lineAt(Pos);
    Text.insert(E, Text.substr(B, E - B));
    break;
  }
  default: { // drop a line
    auto [B, E] = lineAt(Pos);
    Text.erase(B, E - B);
    break;
  }
  }
}

const char *const ByteMutationKinds[] = {"flip", "count", "truncate"};

/// Applies byte mutation \p Kind (an index into ByteMutationKinds) to
/// \p Bytes at positions drawn from \p R. "count" rewrites the
/// little-endian u32 at a random offset the way a lying length or count
/// field would read: off by one, zero, all ones, doubled or random.
inline void mutateBytes(std::vector<uint8_t> &Bytes, unsigned Kind, Rng &R) {
  if (Bytes.empty())
    return;
  size_t Pos = R.below(static_cast<uint32_t>(Bytes.size()));
  switch (Kind) {
  case 0: // flip one bit
    Bytes[Pos] = static_cast<uint8_t>(Bytes[Pos] ^ (1u << R.below(8)));
    break;
  case 1: { // edit a u32 field
    Pos = std::min(Pos, Bytes.size() - std::min<size_t>(Bytes.size(), 4));
    size_t Len = std::min<size_t>(4, Bytes.size() - Pos);
    uint32_t V = 0;
    for (size_t K = 0; K != Len; ++K)
      V |= static_cast<uint32_t>(Bytes[Pos + K]) << (8 * K);
    switch (R.below(6)) {
    case 0:
      V += 1;
      break;
    case 1:
      V -= 1;
      break;
    case 2:
      V = 0;
      break;
    case 3:
      V = 0xFFFFFFFFu;
      break;
    case 4:
      V *= 2;
      break;
    default:
      V = static_cast<uint32_t>(R.next());
      break;
    }
    for (size_t K = 0; K != Len; ++K)
      Bytes[Pos + K] = static_cast<uint8_t>(V >> (8 * K));
    break;
  }
  default: // truncate
    Bytes.resize(Pos);
    break;
  }
}

/// One decoder verdict: the golden line, and whether the mutant decoded.
struct MutantVerdict {
  std::string Line;
  bool Accepted = false;
};

/// Runs \p Verdict over every mutant index of the sweep and checks the first
/// \p GoldenCount lines against \p GoldenPath ('#' lines are comments). On a
/// mismatch it prints the actual lines, to paste in only for a change meant
/// to move the decoder's verdicts. The sweep must see both verdicts.
template <typename VerdictFn>
void expectMutantVerdictsMatchGolden(const char *GoldenPath,
                                     unsigned GoldenCount,
                                     VerdictFn &&Verdict) {
  std::vector<std::string> Golden;
  {
    std::ifstream In(GoldenPath);
    std::string Line;
    while (std::getline(In, Line))
      if (!Line.empty() && Line[0] != '#')
        Golden.push_back(Line);
  }
  EXPECT_EQ(Golden.size(), GoldenCount) << "bad golden file " << GoldenPath;
  Golden.resize(GoldenCount);
  unsigned Iters = fuzzIterations(GoldenCount);
  unsigned Accepted = 0, Mismatches = 0;
  std::string Actual;
  for (unsigned I = 0; I != Iters; ++I) {
    MutantVerdict V = Verdict(I);
    Accepted += V.Accepted;
    if (I >= GoldenCount)
      continue;
    Actual += V.Line + "\n";
    if (V.Line != Golden[I] && ++Mismatches <= 10 && !Golden[I].empty())
      ADD_FAILURE() << "mutant " << I << ": got '" << V.Line << "', golden '"
                    << Golden[I] << "'";
  }
  EXPECT_EQ(Mismatches, 0u) << "actual lines:\n" << Actual;
  EXPECT_GT(Accepted, 0u);
  EXPECT_LT(Accepted, Iters);
}

} // namespace proteus_test

#endif // PROTEUS_TESTS_MUTATION_H
