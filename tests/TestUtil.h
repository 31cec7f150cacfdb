//===- TestUtil.h - shared test helpers -------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel builders and differential-execution helpers shared by the test
/// suites. The central utility runs a kernel through the reference IR
/// interpreter before and after a transformation (or through the codegen
/// simulator) and compares memory images bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_TESTS_TESTUTIL_H
#define PROTEUS_TESTS_TESTUTIL_H

#include "ir/Cloning.h"
#include "ir/IRBuilder.h"
#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "ir/OpSemantics.h"
#include "ir/Verifier.h"
#include "support/Env.h"
#include "support/FileSystem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace proteus_test {

/// Sets (or, for a null \p Value, unsets) an environment variable for the
/// scope and restores the previous state, absence included, on destruction
/// — also when an ASSERT returns early.
class ScopedEnv {
public:
  ScopedEnv(std::string Name, const char *Value) : Name(std::move(Name)) {
    if (const char *Old = std::getenv(this->Name.c_str()))
      Saved = Old;
    if (Value)
      setenv(this->Name.c_str(), Value, 1);
    else
      unsetenv(this->Name.c_str());
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;
  ~ScopedEnv() {
    if (Saved)
      setenv(Name.c_str(), Saved->c_str(), 1);
    else
      unsetenv(Name.c_str());
  }

private:
  std::string Name;
  std::optional<std::string> Saved;
};

/// A fresh directory under the system temporary directory, removed with
/// everything in it (subdirectories included) on scope exit.
struct TempDir {
  std::string Path;
  TempDir() : Path(proteus::fs::makeTempDirectory("proteus-test")) {}
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  ~TempDir() { proteus::fs::removeTree(Path); }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
};

/// Iterations of a randomized sweep whose built-in size is \p Floor: the
/// larger of \p Floor and PROTEUS_FUZZ_ITERS, which only ever widens a
/// sweep. A value that is not a decimal count in [1, 2^32-1] aborts the
/// binary naming the variable and the value, so `10k` or `abc` cannot
/// silently run a smaller sweep than asked for.
inline unsigned fuzzIterations(unsigned Floor) {
  const char *E = std::getenv("PROTEUS_FUZZ_ITERS");
  if (!E)
    return Floor;
  uint64_t V = 0;
  if (!proteus::env::parseDecimal(E, V) || V == 0 || V > UINT32_MAX) {
    std::fprintf(stderr,
                 "PROTEUS_FUZZ_ITERS='%s' is not an iteration count in "
                 "[1, 4294967295]\n",
                 E);
    std::abort();
  }
  return std::max(Floor, static_cast<unsigned>(V));
}

/// Builds: kernel @daxpy(%a: f64, %x: ptr, %y: ptr, %n: i32)
/// y[i] = a * x[i] + y[i] for the global thread id i < n — the paper's
/// running example (Figure 2), with a "jit" annotation on a (1) and n (4).
inline pir::Function *buildDaxpyKernel(pir::Module &M) {
  pir::Context &Ctx = M.getContext();
  pir::IRBuilder B(Ctx);
  pir::Function *F = M.createFunction(
      "daxpy", Ctx.getVoidTy(),
      {Ctx.getF64Ty(), Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty()},
      {"a", "x", "y", "n"}, pir::FunctionKind::Kernel);
  F->setJitAnnotation(pir::JitAnnotation{{1, 4}});

  pir::BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  pir::BasicBlock *Then = F->createBlock("then", Ctx.getVoidTy());
  pir::BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  pir::Value *Gtid = B.createGlobalThreadIdX();
  pir::Value *InRange =
      B.createICmp(pir::ICmpPred::SLT, Gtid, F->getArg(3), "inrange");
  B.createCondBr(InRange, Then, Exit);

  B.setInsertPoint(Then);
  pir::Value *Xp = B.createGep(Ctx.getF64Ty(), F->getArg(1), Gtid, "xp");
  pir::Value *Yp = B.createGep(Ctx.getF64Ty(), F->getArg(2), Gtid, "yp");
  pir::Value *Xv = B.createLoad(Ctx.getF64Ty(), Xp, "xv");
  pir::Value *Yv = B.createLoad(Ctx.getF64Ty(), Yp, "yv");
  pir::Value *Ax = B.createFMul(F->getArg(0), Xv, "ax");
  pir::Value *Sum = B.createFAdd(Ax, Yv, "sum");
  B.createStore(Sum, Yp);
  B.createBr(Exit);

  B.setInsertPoint(Exit);
  B.createRet();
  return F;
}

/// Builds a reduction-style kernel with a loop whose bound is argument %n:
/// out[gtid] = sum_{k=0..n-1} (in[gtid] * k). Exercises phis, loops and
/// unrolling under specialization.
inline pir::Function *buildLoopSumKernel(pir::Module &M) {
  pir::Context &Ctx = M.getContext();
  pir::IRBuilder B(Ctx);
  pir::Function *F = M.createFunction(
      "loopsum", Ctx.getVoidTy(),
      {Ctx.getPtrTy(), Ctx.getPtrTy(), Ctx.getI32Ty()}, {"in", "out", "n"},
      pir::FunctionKind::Kernel);
  F->setJitAnnotation(pir::JitAnnotation{{3}});

  pir::BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  pir::BasicBlock *Header = F->createBlock("header", Ctx.getVoidTy());
  pir::BasicBlock *Body = F->createBlock("body", Ctx.getVoidTy());
  pir::BasicBlock *Exit = F->createBlock("exit", Ctx.getVoidTy());

  B.setInsertPoint(Entry);
  pir::Value *Gtid = B.createGlobalThreadIdX();
  pir::Value *InP = B.createGep(Ctx.getF64Ty(), F->getArg(0), Gtid, "inp");
  pir::Value *InV = B.createLoad(Ctx.getF64Ty(), InP, "inv");
  B.createBr(Header);

  B.setInsertPoint(Header);
  pir::PhiInst *I = B.createPhi(Ctx.getI32Ty(), "i");
  pir::PhiInst *Acc = B.createPhi(Ctx.getF64Ty(), "acc");
  I->addIncoming(B.getInt32(0), Entry);
  Acc->addIncoming(B.getDouble(0.0), Entry);
  pir::Value *Cond = B.createICmp(pir::ICmpPred::SLT, I, F->getArg(2), "c");
  B.createCondBr(Cond, Body, Exit);

  B.setInsertPoint(Body);
  pir::Value *Kf = B.createSIToFP(I, Ctx.getF64Ty(), "kf");
  pir::Value *Term = B.createFMul(InV, Kf, "term");
  pir::Value *Acc2 = B.createFAdd(Acc, Term, "acc2");
  pir::Value *I2 = B.createAdd(I, B.getInt32(1), "i2");
  I->addIncoming(I2, Body);
  Acc->addIncoming(Acc2, Body);
  B.createBr(Header);

  B.setInsertPoint(Exit);
  pir::Value *OutP = B.createGep(Ctx.getF64Ty(), F->getArg(1), Gtid, "outp");
  B.createStore(Acc, OutP);
  B.createRet();
  return F;
}

/// Asserts the module verifies, with the diagnostic on failure.
inline void expectValid(pir::Module &M) {
  pir::VerifyResult R = pir::verifyModule(M);
  EXPECT_TRUE(R.ok()) << R.message();
}

inline void expectValid(pir::Function &F) {
  pir::VerifyResult R = pir::verifyFunction(F);
  EXPECT_TRUE(R.ok()) << R.message();
}

/// Runs \p F in the reference interpreter for every thread of a 1-D launch
/// over \p Memory. Returns total dynamic instructions.
inline uint64_t interpretLaunch(pir::Function &F,
                                const std::vector<uint64_t> &ArgBits,
                                std::vector<uint8_t> &Memory, uint32_t Blocks,
                                uint32_t ThreadsPerBlock) {
  pir::IRInterpreter Interp(Memory);
  uint64_t Total = 0;
  for (uint32_t Blk = 0; Blk != Blocks; ++Blk) {
    for (uint32_t T = 0; T != ThreadsPerBlock; ++T) {
      pir::ThreadGeometry G;
      G.ThreadIdx[0] = T;
      G.BlockIdx[0] = Blk;
      G.BlockDim[0] = ThreadsPerBlock;
      G.GridDim[0] = Blocks;
      pir::InterpResult R = Interp.run(F, ArgBits, G);
      EXPECT_TRUE(R.Ok) << R.Error;
      Total += R.DynamicInstructions;
    }
  }
  return Total;
}

} // namespace proteus_test

#endif // PROTEUS_TESTS_TESTUTIL_H
