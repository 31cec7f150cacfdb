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

bool PassManager::runPass(size_t I, Function &F) {
  // Test mode also checks the fixpoint rule's precondition: a pass that
  // reports no change left the function byte-identical.
  std::string Before = VerifyEach ? printFunction(F) : std::string();
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
    if (!PassChanged && printFunction(F) != Before)
      reportFatalError("pass '" + Passes[I]->name() +
                       "' changed function @" + F.getName() +
                       " but reported no change");
  }
  return PassChanged;
}

bool PassManager::run(Function &F) {
  if (Stats.empty()) {
    for (const auto &P : Passes) {
      Stats.push_back(PassStatistics{P->name(), 0, 0, 0.0});
      SpanNames.push_back(trace::internName("o3." + P->name()));
    }
  }
  // Position K runs pass K mod N. Once every pass, the last one that
  // changed the IR included, has run again without a change, each pass has
  // seen the final IR, so a further sweep could change nothing.
  const size_t N = Passes.size();
  const size_t Limit = N * MaxIterations;
  size_t StopAt = N;
  bool Changed = false;
  for (size_t K = 0; K < StopAt && K < Limit; ++K)
    if (runPass(K % N, F)) {
      Changed = true;
      StopAt = K + N + 1;
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
