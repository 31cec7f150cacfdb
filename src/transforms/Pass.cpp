//===- Pass.cpp - pass interfaces and pipeline manager -------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "transforms/Pass.h"

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace proteus;
using namespace pir;

namespace {

/// The printed function followed by the use list of every argument, block
/// and instruction (user id and operand index, in order): the state a pass
/// can observe, which one that reports no change must leave as it was.
std::string snapshot(Function &F) {
  std::string Out = printFunction(F);
  auto AppendUses = [&Out](const Value &V) {
    for (const Use &U : V.uses())
      Out += std::to_string(U.TheUser->getValueId()) + ':' +
             std::to_string(U.OperandIndex) + ' ';
    Out += '\n';
  };
  for (const auto &A : F.args())
    AppendUses(*A);
  for (BasicBlock &BB : F) {
    AppendUses(BB);
    for (Instruction &I : BB)
      AppendUses(I);
  }
  return Out;
}

} // namespace

bool PassManager::runPass(size_t I, Function &F) {
  // Test mode also checks the fixpoint rule's precondition: a pass that
  // reports no change left the function, use order included, as it was.
  std::string Before = VerifyEach ? snapshot(F) : std::string();
  bool PassChanged;
  double Seconds;
  {
    trace::Span Sp(SpanNames[I], "o3");
    Timer T;
    PassChanged = Passes[I]->run(F);
    Seconds = T.seconds();
  }
  Stats[I].Seconds += Seconds;
  if (TimingHookFn)
    TimingHookFn(Stats[I].Name, Seconds);
  if (PostPassHookFn)
    PostPassHookFn(Stats[I].Name, F);
  ++Stats[I].Invocations;
  if (PassChanged)
    ++Stats[I].ChangedInvocations;
  if (VerifyEach) {
    VerifyResult R = verifyFunction(F);
    if (!R.ok())
      reportFatalError("pass '" + Passes[I]->name() + "' broke function @" +
                       F.getName() + ":\n" + R.message());
    if (!PassChanged && snapshot(F) != Before)
      reportFatalError("pass '" + Passes[I]->name() +
                       "' changed function @" + F.getName() +
                       " but reported no change");
  }
  return PassChanged;
}

bool PassManager::run(Function &F) {
  const size_t N = Passes.size();
  if (Stats.empty()) {
    for (size_t I = 0; I != N; ++I) {
      const FunctionPass &P = *Passes[I];
      Stats.push_back(PassStatistics{P.name(), 0, 0, 0.0});
      SpanNames.push_back(trace::internName("o3." + P.name()));
      size_t First = 0;
      while (Passes[First]->name() != P.name() ||
             Passes[First]->options() != P.options())
        ++First;
      SamePassAs.push_back(First);
    }
  }
  // Position K runs pass K mod N, unless the same pass already ran on the
  // current IR without a change: deterministic, it would change nothing
  // again. Once every distinct pass is clean, no position can change the
  // IR, so the run stops.
  size_t NumDistinct = 0;
  for (size_t I = 0; I != N; ++I)
    NumDistinct += SamePassAs[I] == I;
  std::vector<bool> Clean(N);
  size_t NumClean = 0;
  bool Changed = false;
  for (size_t K = 0, Limit = N * MaxIterations;
       K < Limit && NumClean < NumDistinct; ++K) {
    size_t I = K % N;
    if (Clean[SamePassAs[I]])
      continue;
    if (runPass(I, F)) {
      Changed = true;
      Clean.assign(N, false);
      NumClean = 0;
    } else {
      Clean[SamePassAs[I]] = true;
      ++NumClean;
    }
  }
  return Changed;
}

bool PassManager::run(Module &M) {
  bool Changed = false;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Changed |= run(*F);
  return Changed;
}
