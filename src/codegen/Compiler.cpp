//===- Compiler.cpp - kernel compilation driver ---------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "codegen/Compiler.h"

#include "codegen/ISel.h"
#include "codegen/Ptx.h"
#include "ir/Function.h"
#include "support/Error.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace proteus;
using namespace proteus::mcode;

MachineFunction proteus::compileKernel(pir::Function &F,
                                       const TargetInfo &Target,
                                       BackendStats *Stats,
                                       const BackendOptions &Options) {
  BackendStats Local;
  BackendStats &S = Stats ? *Stats : Local;

  Timer T;
  MachineFunction MF = [&] {
    trace::Span Sp("backend.isel", "backend");
    return selectInstructions(F);
  }();
  S.ISelSeconds = T.seconds();

  if (Target.EmitsPtx) {
    // NVIDIA path: print PTX-like text and re-assemble it — the extra step
    // the real toolchain performs in ptxas / nvPTXCompilerCompile.
    // The text buffer is per thread and reused across compiles.
    thread_local std::string Ptx;
    T.reset();
    {
      trace::Span Sp("backend.ptx_emit", "backend");
      printPtx(MF, Ptx);
    }
    S.PtxEmitSeconds = T.seconds();
    T.reset();
    PtxAssembleResult Asm = [&] {
      trace::Span Sp("backend.ptx_asm", "backend");
      return assemblePtx(Ptx);
    }();
    S.PtxAsmSeconds = T.seconds();
    if (!Asm.Ok)
      reportFatalError("ptx-sim assembler rejected generated code: " +
                       Asm.Error);
    MF = std::move(Asm.MF);
  }

  S.RegisterBudget = Target.registerBudget(F.getLaunchBounds());
  T.reset();
  {
    trace::Span Sp("backend.regalloc", "backend");
    S.RA = allocateRegisters(MF, S.RegisterBudget, Options.RegAlloc);
  }
  S.RegAllocSeconds = T.seconds();
  return MF;
}

std::vector<uint8_t> proteus::compileKernelToObject(pir::Function &F,
                                                    const TargetInfo &Target,
                                                    BackendStats *Stats,
                                                    const BackendOptions &Options) {
  MachineFunction MF = compileKernel(F, Target, Stats, Options);
  return writeObject(MF, Target.Arch);
}
