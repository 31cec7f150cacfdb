//===- bitcode_test.cpp - bitcode serialization tests ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Mutation.h"
#include "TestUtil.h"

#include "bitcode/Bitcode.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace pir;
using namespace proteus;
using namespace proteus_test;

namespace {

void expectBitcodeRoundTrip(Module &M) {
  std::vector<uint8_t> Bytes = writeBitcode(M);
  Context Ctx2;
  BitcodeReadResult R = readBitcode(Ctx2, Bytes);
  ASSERT_TRUE(R) << R.Error;
  expectValid(*R.M);
  EXPECT_EQ(printModule(M), printModule(*R.M));
  // Bitcode must be deterministic: same module, same bytes.
  EXPECT_EQ(Bytes, writeBitcode(*R.M));
}

TEST(BitcodeTest, RoundTripDaxpy) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  expectBitcodeRoundTrip(M);
}

TEST(BitcodeTest, RoundTripLoopsPhisGlobalsCalls) {
  Context Ctx;
  Module M(Ctx, "m");
  std::vector<uint8_t> Init(8, 0x5A);
  M.createGlobal("g", Ctx.getI64Ty(), 1, Init);
  buildLoopSumKernel(M);

  IRBuilder B(Ctx);
  Function *Dev = M.createFunction("helper", Ctx.getF64Ty(),
                                   {Ctx.getF64Ty()}, {"x"},
                                   FunctionKind::Device);
  Dev->setAlwaysInline(true);
  B.setInsertPoint(Dev->createBlock("entry", Ctx.getVoidTy()));
  B.createRet(B.createSqrt(Dev->getArg(0)));

  Function *K = M.createFunction("caller", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"p"}, FunctionKind::Kernel);
  K->setLaunchBounds(LaunchBounds{128, 2});
  B.setInsertPoint(K->createBlock("entry", Ctx.getVoidTy()));
  Value *G = M.getGlobal("g");
  Value *GI = B.createLoad(Ctx.getI64Ty(), G);
  Value *GF = B.createSIToFP(GI, Ctx.getF64Ty());
  Value *R = B.createCall(Dev, {GF});
  B.createStore(R, K->getArg(0));
  B.createRet();

  expectBitcodeRoundTrip(M);
}

TEST(BitcodeTest, PreservesAttributes) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  F->setLaunchBounds(LaunchBounds{512, 4});

  std::vector<uint8_t> Bytes = writeBitcode(M);
  Context Ctx2;
  BitcodeReadResult R = readBitcode(Ctx2, Bytes);
  ASSERT_TRUE(R) << R.Error;
  Function *F2 = R.M->getFunction("daxpy");
  ASSERT_NE(F2, nullptr);
  ASSERT_TRUE(F2->getLaunchBounds().has_value());
  EXPECT_EQ(F2->getLaunchBounds()->MaxThreadsPerBlock, 512u);
  EXPECT_EQ(F2->getLaunchBounds()->MinBlocksPerProcessor, 4u);
  ASSERT_TRUE(F2->getJitAnnotation().has_value());
  EXPECT_EQ(F2->getJitAnnotation()->ArgIndices,
            (std::vector<uint32_t>{1, 4}));
  EXPECT_TRUE(F2->isKernel());
}

TEST(BitcodeTest, RejectsBadMagic) {
  Context Ctx;
  std::vector<uint8_t> Junk = {1, 2, 3, 4, 5, 6, 7, 8};
  BitcodeReadResult R = readBitcode(Ctx, Junk);
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("magic"), std::string::npos);
}

TEST(BitcodeTest, RejectsTruncation) {
  Context Ctx;
  Module M(Ctx, "m");
  buildLoopSumKernel(M);
  std::vector<uint8_t> Bytes = writeBitcode(M);
  // Any truncation point must fail cleanly, never crash.
  for (size_t Cut = 0; Cut < Bytes.size(); Cut += 7) {
    std::vector<uint8_t> Truncated(Bytes.begin(),
                                   Bytes.begin() + static_cast<long>(Cut));
    Context CtxN;
    BitcodeReadResult R = readBitcode(CtxN, Truncated);
    EXPECT_FALSE(R) << "cut at " << Cut;
  }
}

/// Bitcode of a module holding one i64 global "g" with \p Init, its
/// element count patched to \p Count.
std::vector<uint8_t> globalWithCount(std::vector<uint8_t> Init,
                                     uint64_t Count) {
  Context Ctx;
  Module M(Ctx, "m");
  M.createGlobal("g", Ctx.getI64Ty(), Init.empty() ? 1 : Init.size() / 8,
                 std::move(Init));
  std::vector<uint8_t> Bytes = writeBitcode(M);
  // magic, version, "m", global count, "g", element kind, then the count.
  size_t CountAt = 4 + 4 + (4 + 1) + 4 + (4 + 1) + 1;
  for (size_t K = 0; K != 8; ++K)
    Bytes[CountAt + K] = static_cast<uint8_t>(Count >> (8 * K));
  return Bytes;
}

TEST(BitcodeTest, RejectsGlobalCountWhoseByteSizeOverflows) {
  std::vector<uint8_t> Init(8, 0x5A);
  Context Ctx;
  ASSERT_TRUE(readBitcode(Ctx, globalWithCount(Init, 1)));
  // 8 * (2^61 + 1) wraps to 8, the initializer's size.
  BitcodeReadResult R =
      readBitcode(Ctx, globalWithCount(Init, (uint64_t(1) << 61) + 1));
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Error, "global too large");
  // Zero-initialized globals are capped without wrapping too.
  uint64_t MaxCount = MaxBitcodeGlobalBytes / 8;
  EXPECT_TRUE(readBitcode(Ctx, globalWithCount({}, MaxCount)));
  EXPECT_FALSE(readBitcode(Ctx, globalWithCount({}, MaxCount + 1)));
  EXPECT_FALSE(readBitcode(Ctx, globalWithCount({}, ~uint64_t(0))));
}

TEST(BitcodeTest, RejectsCorruptOperandSlots) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  std::vector<uint8_t> Bytes = writeBitcode(M);
  // Flip bytes across the body region; reader must fail or produce a module
  // that still verifies — never crash or corrupt memory.
  for (size_t Pos = Bytes.size() / 2; Pos < Bytes.size(); Pos += 11) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[Pos] ^= 0xFF;
    Context CtxN;
    BitcodeReadResult R = readBitcode(CtxN, Mutated);
    if (R) {
      // Accept only structurally valid results.
      VerifyResult V = verifyModule(*R.M);
      (void)V; // verification may fail; the point is memory safety
    }
  }
  SUCCEED();
}

/// Mutants pinned by tests/golden/bitcode_mutants.txt; PROTEUS_FUZZ_ITERS
/// widens the sweep past them.
constexpr unsigned GoldenBitcodeMutants = 1200;

/// The bitcode of every HeCBench-sim program's module, keyed by program.
const std::vector<std::pair<std::string, std::vector<uint8_t>>> &
hecbenchBitcode() {
  static const auto All = [] {
    std::vector<std::pair<std::string, std::vector<uint8_t>>> Out;
    for (const auto &B : hecbench::allBenchmarks()) {
      Context Ctx;
      Out.emplace_back(B->name(), writeBitcode(*B->buildModule(Ctx)));
    }
    return Out;
  }();
  return All;
}

std::string printDigest(const std::string &Text) {
  FNV1aHash H;
  H.update(Text);
  return hashToHex(H.digest());
}

/// The reader's verdict on mutant \p I: its reject message, or the digest
/// of the accepted module's print. An accepted module must write and read
/// back to the same print.
MutantVerdict bitcodeMutantVerdict(unsigned I) {
  const auto &All = hecbenchBitcode();
  const auto &[Name, Pristine] = All[I % All.size()];
  Rng R(0x51ed270bull * (I + 1));
  unsigned Kind = R.below(std::size(ByteMutationKinds));
  std::vector<uint8_t> Bytes = Pristine;
  mutateBytes(Bytes, Kind, R);
  Context Ctx;
  BitcodeReadResult Read = readBitcode(Ctx, Bytes);
  std::string Verdict;
  if (Read) {
    std::string Text = printModule(*Read.M);
    Verdict = "ok " + printDigest(Text);
    Context Ctx2;
    BitcodeReadResult Again = readBitcode(Ctx2, writeBitcode(*Read.M));
    EXPECT_TRUE(Again) << "mutant " << I << ": " << Again.Error;
    if (Again) {
      EXPECT_EQ(printModule(*Again.M), Text) << "mutant " << I;
    }
  } else {
    Verdict = "rejected: " + Read.Error;
  }
  return {formatString("%u %s %s %s", I, Name.c_str(), ByteMutationKinds[Kind],
                       Verdict.c_str()),
          static_cast<bool>(Read)};
}

TEST(BitcodeTest, MutantVerdictsMatchGolden) {
  expectMutantVerdictsMatchGolden(PROTEUS_BITCODE_MUTANTS,
                                  GoldenBitcodeMutants, bitcodeMutantVerdict);
}

TEST(BitcodeTest, SizeIsCompact) {
  Context Ctx;
  Module M(Ctx, "m");
  buildDaxpyKernel(M);
  buildLoopSumKernel(M);
  std::vector<uint8_t> Bytes = writeBitcode(M);
  // The paper reports KB-scale caches; our bitcode for two small kernels
  // should be well under 4KB.
  EXPECT_LT(Bytes.size(), 4096u);
  EXPECT_GT(Bytes.size(), 100u);
}

} // namespace
