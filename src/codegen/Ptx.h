//===- Ptx.h - PTX-like textual assembly step -------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NVIDIA-path intermediate step. The nvptx-sim backend does not emit
/// binary code directly: it prints a PTX-like textual module from the
/// virtual-register machine IR, and a separate assembler (the ptxas /
/// nvPTXCompilerCompile stand-in) parses that text and performs register
/// allocation to produce the final binary. This extra, genuinely-executed
/// step is the source of the additional NVIDIA JIT overhead the paper
/// measures (sections 3.3 and 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_CODEGEN_PTX_H
#define PROTEUS_CODEGEN_PTX_H

#include "codegen/MachineIR.h"

#include <string>

namespace proteus {

/// Renders pre-allocation machine IR as PTX-like text into \p Out,
/// replacing its contents; a caller that keeps \p Out across calls reuses
/// its storage.
void printPtx(const mcode::MachineFunction &MF, std::string &Out);

/// Renders pre-allocation machine IR as PTX-like text.
std::string printPtx(const mcode::MachineFunction &MF);

/// Result of assembling PTX text.
struct PtxAssembleResult {
  mcode::MachineFunction MF; // virtual registers; caller runs allocation
  bool Ok = false;
  std::string Error;
};

/// Parses PTX-like text back into machine IR. Accepts the line forms
/// printPtx produces; any other line is malformed and yields an error
/// result. Number tokens follow the base-10 rules of strtoul (registers,
/// Aux, directives, labels), strtoll (Imm) and strtol (Imm2), read in
/// place: leading whitespace is skipped, one '+' or '-' is accepted (an
/// unsigned field negates modulo 2^64), reading stops at the first
/// non-digit, a token without digits reads as 0, and overflow saturates.
/// Each field then narrows the value to its own width.
PtxAssembleResult assemblePtx(const std::string &Text);

} // namespace proteus

#endif // PROTEUS_CODEGEN_PTX_H
