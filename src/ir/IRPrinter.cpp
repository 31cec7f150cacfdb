//===- IRPrinter.cpp - PIR textual output --------------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "ir/Module.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <sstream>
#include <unordered_set>

using namespace pir;
using namespace proteus;

namespace {

/// Assigns deterministic, unique textual names to values and blocks within
/// one function and prints the body.
class FunctionPrinter {
public:
  explicit FunctionPrinter(Function &F) : F(F), Names(F) { assignNames(); }

  void print(std::ostringstream &OS) {
    printHeader(OS);
    if (F.isDeclaration()) {
      OS << ";\n";
      return;
    }
    OS << " {\n";
    for (BasicBlock &BB : F) {
      OS << Names[&BB] << ":\n";
      for (Instruction &I : BB) {
        OS << "  ";
        printInstruction(OS, I);
        OS << "\n";
      }
    }
    OS << "}\n";
  }

private:
  void assignNames() {
    // Names are kept verbatim when already unique so that print -> parse ->
    // print is a fixpoint (the parser preserves names); collisions get a
    // numeric ".N" suffix.
    std::unordered_set<std::string> UsedValues, UsedBlocks;
    auto uniquify = [](const std::string &Hint,
                       std::unordered_set<std::string> &Used,
                       const char *Fallback) {
      std::string Base = Hint.empty() ? Fallback : sanitize(Hint);
      if (Used.insert(Base).second)
        return Base;
      for (unsigned I = 0;; ++I) {
        std::string Candidate = Base + "." + std::to_string(I);
        if (Used.insert(Candidate).second)
          return Candidate;
      }
    };
    for (const auto &A : F.args())
      Names[A.get()] = "%" + uniquify(A->getName(), UsedValues, "arg");
    for (BasicBlock &BB : F) {
      Names[&BB] = uniquify(BB.getName(), UsedBlocks, "bb");
      for (Instruction &I : BB) {
        if (!I.getType()->isVoid())
          Names[&I] = "%" + uniquify(I.getName(), UsedValues, "v");
      }
    }
  }

  static std::string sanitize(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.')
        Out += C;
      else
        Out += '_';
    }
    return Out.empty() ? "v" : Out;
  }

  void printHeader(std::ostringstream &OS) {
    OS << (F.isKernel() ? "kernel" : "device") << " @" << F.getName() << "(";
    for (size_t I = 0, E = F.getNumArgs(); I != E; ++I) {
      if (I)
        OS << ", ";
      Argument *A = F.getArg(I);
      OS << Names[A] << ": " << A->getType()->getName();
    }
    OS << ")";
    if (!F.getReturnType()->isVoid())
      OS << " : " << F.getReturnType()->getName();
    if (F.isAlwaysInline())
      OS << " always_inline";
    if (const auto &LB = F.getLaunchBounds())
      OS << " launch_bounds(" << LB->MaxThreadsPerBlock << ", "
         << LB->MinBlocksPerProcessor << ")";
    if (const auto &Ann = F.getJitAnnotation()) {
      OS << " annotate(\"jit\"";
      for (uint32_t Idx : Ann->ArgIndices)
        OS << ", " << Idx;
      OS << ")";
    }
  }

  std::string operandRef(Value *V) {
    if (auto *CI = dyn_cast<ConstantInt>(V)) {
      if (CI->getType()->isI1())
        return std::string("i1 ") + (CI->isZero() ? "0" : "1");
      return CI->getType()->getName() + " " +
             std::to_string(CI->getSExtValue());
    }
    if (auto *CF = dyn_cast<ConstantFP>(V))
      return CF->getType()->getName() + " " + formatDouble(CF->getValue());
    if (auto *CP = dyn_cast<ConstantPtr>(V)) {
      if (CP->isNull())
        return "ptr null";
      return formatString("ptr 0x%llx",
                          static_cast<unsigned long long>(CP->getAddress()));
    }
    if (auto *G = dyn_cast<GlobalVariable>(V))
      return "@" + G->getName();
    if (auto *Fn = dyn_cast<Function>(V))
      return "@" + Fn->getName();
    auto *A = dyn_cast<Argument>(V);
    auto *BB = dyn_cast<BasicBlock>(V);
    Function *Owner = A    ? A->getParent()
                      : BB ? BB->getParent()
                           : cast<Instruction>(V)->getFunction();
    if (Owner != &F || Names[V].empty())
      reportFatalError("printer: reference to value outside function");
    return BB ? "%" + Names[V] : Names[V];
  }

  void printInstruction(std::ostringstream &OS, Instruction &I) {
    if (!I.getType()->isVoid())
      OS << Names[&I] << " = ";
    switch (I.getKind()) {
    case ValueKind::ICmp: {
      auto &C = cast<ICmpInst>(I);
      OS << "icmp " << icmpPredName(C.getPredicate()) << " "
         << operandRef(C.getLHS()) << ", " << operandRef(C.getRHS());
      return;
    }
    case ValueKind::FCmp: {
      auto &C = cast<FCmpInst>(I);
      OS << "fcmp " << fcmpPredName(C.getPredicate()) << " "
         << operandRef(C.getLHS()) << ", " << operandRef(C.getRHS());
      return;
    }
    case ValueKind::Select:
      OS << "select " << operandRef(I.getOperand(0)) << ", "
         << operandRef(I.getOperand(1)) << ", " << operandRef(I.getOperand(2));
      return;
    case ValueKind::Alloca: {
      auto &A = cast<AllocaInst>(I);
      OS << "alloca " << A.getAllocatedType()->getName() << " x "
         << A.getNumElements();
      return;
    }
    case ValueKind::Load:
      OS << "load " << I.getType()->getName() << ", "
         << operandRef(I.getOperand(0));
      return;
    case ValueKind::Store:
      OS << "store " << operandRef(I.getOperand(0)) << ", "
         << operandRef(I.getOperand(1));
      return;
    case ValueKind::PtrAdd: {
      auto &P = cast<PtrAddInst>(I);
      OS << "ptradd " << operandRef(P.getBase()) << ", "
         << operandRef(P.getIndex()) << ", " << P.getElemSize();
      return;
    }
    case ValueKind::AtomicAdd:
      OS << "atomicadd " << operandRef(I.getOperand(0)) << ", "
         << operandRef(I.getOperand(1));
      return;
    case ValueKind::ThreadIdx:
    case ValueKind::BlockIdx:
    case ValueKind::BlockDim:
    case ValueKind::GridDim: {
      auto &G = cast<GpuIndexInst>(I);
      OS << valueKindName(I.getKind()) << "."
         << "xyz"[G.getDim()];
      return;
    }
    case ValueKind::Barrier:
      OS << "barrier";
      return;
    case ValueKind::Call: {
      auto &C = cast<CallInst>(I);
      OS << "call @" << C.getCallee()->getName() << "(";
      for (size_t A = 0, E = C.getNumArgs(); A != E; ++A) {
        if (A)
          OS << ", ";
        OS << operandRef(C.getArg(A));
      }
      OS << ")";
      if (!I.getType()->isVoid())
        OS << " : " << I.getType()->getName();
      return;
    }
    case ValueKind::Phi: {
      auto &P = cast<PhiInst>(I);
      OS << "phi " << P.getType()->getName();
      for (size_t K = 0, E = P.getNumIncoming(); K != E; ++K) {
        OS << (K ? ", [ " : " [ ") << operandRef(P.getIncomingValue(K))
           << ", " << operandRef(P.getIncomingBlock(K)) << " ]";
      }
      return;
    }
    case ValueKind::Br:
      OS << "br " << operandRef(cast<BranchInst>(I).getSuccessor(0));
      return;
    case ValueKind::CondBr: {
      auto &B = cast<BranchInst>(I);
      OS << "condbr " << operandRef(B.getCondition()) << ", "
         << operandRef(B.getSuccessor(0)) << ", "
         << operandRef(B.getSuccessor(1));
      return;
    }
    case ValueKind::Ret: {
      auto &R = cast<RetInst>(I);
      OS << "ret";
      if (R.hasReturnValue())
        OS << " " << operandRef(R.getReturnValue());
      return;
    }
    default:
      break;
    }
    if (auto *B = dyn_cast<BinaryInst>(&I)) {
      OS << valueKindName(I.getKind()) << " " << operandRef(B->getLHS())
         << ", " << operandRef(B->getRHS());
      return;
    }
    if (auto *U = dyn_cast<UnaryInst>(&I)) {
      OS << valueKindName(I.getKind()) << " "
         << operandRef(U->getOperandValue());
      return;
    }
    if (auto *C = dyn_cast<CastInst>(&I)) {
      OS << valueKindName(I.getKind()) << " " << operandRef(C->getSource())
         << " to " << I.getType()->getName();
      return;
    }
    reportFatalError("printer: unhandled instruction kind");
  }

  Function &F;
  /// The printed name of every argument, block and non-void instruction.
  ValueIdMap<std::string> Names;
};

void printGlobal(std::ostringstream &OS, const GlobalVariable &G) {
  OS << "global @" << G.getName() << " : " << G.getElemType()->getName()
     << " x " << G.getNumElements();
  if (G.getInit().empty()) {
    OS << " = zeroinit\n";
    return;
  }
  OS << " = hex ";
  static const char Digits[] = "0123456789abcdef";
  for (uint8_t B : G.getInit()) {
    OS << Digits[B >> 4] << Digits[B & 0xF];
  }
  OS << "\n";
}

} // namespace

std::string pir::printModule(Module &M) {
  std::ostringstream OS;
  OS << "module \"" << M.getName() << "\"\n\n";
  for (const auto &G : M.globals())
    printGlobal(OS, *G);
  if (!M.globals().empty())
    OS << "\n";
  for (const auto &F : M.functions()) {
    FunctionPrinter(*F).print(OS);
    OS << "\n";
  }
  return OS.str();
}

std::string pir::printFunction(Function &F) {
  std::ostringstream OS;
  FunctionPrinter(F).print(OS);
  return OS.str();
}
