//===- gpu_test.cpp - device/runtime/executor tests ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The central test here is differential: kernels compiled through the full
// backend and executed by the simulator must produce bit-identical memory
// to the reference IR interpreter, across optimization levels, targets and
// register budgets.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/Compiler.h"
#include "codegen/ISel.h"
#include "codegen/ObjectFile.h"
#include "gpu/PerfModel.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include <sys/resource.h>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

TEST(DeviceTest, AllocateFreeReuse) {
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  DevicePtr A = Dev.allocate(1000);
  DevicePtr B = Dev.allocate(1000);
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  Dev.free(A);
  DevicePtr C = Dev.allocate(512);
  EXPECT_EQ(C, A) << "free list should be reused first-fit";
  // Exhaustion returns null, not UB.
  EXPECT_EQ(Dev.allocate(2u << 20), 0u);
}

TEST(DeviceTest, OversizedMallocFailsInsteadOfWrapping) {
  // Rounding a request near 2^64 up to the 256-byte granule used to wrap to
  // 0 bytes, so the request "succeeded" and aliased the next allocation.
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  DevicePtr P = 0;
  EXPECT_EQ(gpuMalloc(Dev, &P, ~0ull - 10), GpuError::OutOfMemory);
  EXPECT_EQ(P, 0u);
  EXPECT_EQ(gpuMalloc(Dev, &P, (1u << 20) + 1), GpuError::OutOfMemory);
  DevicePtr Q = 0, R = 0;
  ASSERT_EQ(gpuMalloc(Dev, &Q, 64), GpuError::Success);
  ASSERT_EQ(gpuMalloc(Dev, &R, 64), GpuError::Success);
  EXPECT_NE(Q, R);
  // The same holds when the request is served from the free list.
  ASSERT_EQ(gpuFree(Dev, Q), GpuError::Success);
  EXPECT_EQ(gpuMalloc(Dev, &P, ~0ull - 10), GpuError::OutOfMemory);
  EXPECT_EQ(Dev.allocate(~0ull), 0u);
}

TEST(DeviceMemoryTest, FreshDeviceReadsZeroAtBothEnds) {
  Device Dev(getAmdGcnSimTarget());
  const DeviceMemory &Mem = Dev.memory();
  ASSERT_EQ(Mem.size(), 1ull << 28);
  EXPECT_EQ(Mem[0], 0);
  EXPECT_EQ(Mem[Mem.size() - 1], 0);
  EXPECT_EQ(Mem.data()[Mem.size() / 2], 0);
}

TEST(DeviceMemoryTest, UntouchedPagesCostNoFaults) {
  auto minorFaults = [] {
    struct rusage U;
    getrusage(RUSAGE_SELF, &U);
    return U.ru_minflt;
  };
  long Before = minorFaults();
  {
    Device Dev(getAmdGcnSimTarget());
    Dev.memory()[Dev.memory().size() / 2] = 7;
    EXPECT_EQ(Dev.memory()[Dev.memory().size() / 2], 7);
  }
  // An eagerly zero-filled 256 MiB device faults in all 65,536 pages.
  EXPECT_LT(minorFaults() - Before, 1000);
}

TEST(DeviceMemoryTest, ValidRangeEdgeCases) {
  const uint64_t Size = 1 << 20;
  Device Dev(getAmdGcnSimTarget(), Size);
  EXPECT_TRUE(Dev.validRange(0, 0));
  EXPECT_TRUE(Dev.validRange(0, Size));
  EXPECT_TRUE(Dev.validRange(Size, 0));
  EXPECT_TRUE(Dev.validRange(Size - 1, 1));
  EXPECT_TRUE(Dev.validRange(Size - 8, 8));
  EXPECT_FALSE(Dev.validRange(Size, 1));
  EXPECT_FALSE(Dev.validRange(Size - 7, 8));
  EXPECT_FALSE(Dev.validRange(0, Size + 1));
  EXPECT_FALSE(Dev.validRange(Size + 1, 0));
  // Wrapping ranges are rejected.
  EXPECT_FALSE(Dev.validRange(~0ull, 2));
  EXPECT_FALSE(Dev.validRange(8, ~0ull));
  EXPECT_FALSE(Dev.validRange(~0ull - 3, 8));
}

TEST(DeviceMemoryTest, SnapshotIsByteIdentical) {
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  DeviceMemory &Mem = Dev.memory();
  Mem[100] = 1;
  Mem[Mem.size() - 1] = 2;
  std::vector<uint8_t> Snapshot = Mem;
  ASSERT_EQ(Snapshot.size(), Mem.size());
  EXPECT_TRUE(Mem == Snapshot);
  EXPECT_EQ(Snapshot[100], 1);
  EXPECT_EQ(Snapshot[5000], 0);
  EXPECT_EQ(Snapshot[Mem.size() - 1], 2);
  Mem[5000] = 3;
  EXPECT_TRUE(Mem != Snapshot);
}

TEST(ExecutorTest, DecodeResolvesTargetsAndRejectsBadOperands) {
  using namespace proteus::mcode;
  auto makeMF = [] {
    MachineFunction MF;
    MF.Name = "k";
    MF.NumRegs = 2;
    MF.Allocated = true;
    MF.Blocks.resize(2);
    MachineInstr Mov;
    Mov.Op = MOp::MovImm;
    Mov.Dst = 1;
    Mov.Imm = 5;
    MachineInstr Br;
    Br.Op = MOp::Br;
    Br.Imm = 1;
    MachineInstr Ret;
    Ret.Op = MOp::Ret;
    MF.Blocks[0].Instrs = {Mov, Br};
    MF.Blocks[1].Instrs = {Ret};
    return MF;
  };
  LoadedKernel K;
  std::string Err;
  ASSERT_TRUE(decodeKernel(makeMF(), K, &Err)) << Err;
  ASSERT_EQ(K.Code.size(), 3u);
  EXPECT_EQ(K.Code[1].Imm, 2) << "branch targets become instruction indices";
  EXPECT_EQ(K.Code[0].Stats[0], StatSlot::Discard) << "immediates are free";
  EXPECT_EQ(K.Code[1].Stats[1], StatSlot::Branches);

  MachineFunction MF = makeMF();
  MF.Allocated = false;
  EXPECT_FALSE(decodeKernel(MF, K, &Err));
  MF = makeMF();
  MF.Blocks[0].Instrs[0].Dst = 2; // register file has 2 registers
  EXPECT_FALSE(decodeKernel(MF, K, &Err));
  MF = makeMF();
  MF.Blocks[0].Instrs[1].Imm = 2; // only 2 blocks
  EXPECT_FALSE(decodeKernel(MF, K, &Err));
  MF = makeMF();
  MF.Blocks[0].Instrs[0].Op = MOp::Binary;
  MF.Blocks[0].Instrs[0].Src1 = MF.Blocks[0].Instrs[0].Src2 = 0;
  MF.Blocks[0].Instrs[0].Aux = static_cast<uint16_t>(ValueKind::FNeg);
  EXPECT_FALSE(decodeKernel(MF, K, &Err)) << "unary kind on a binary op";
  MF = makeMF();
  MF.Blocks[0].Instrs[0].Op = MOp::LdSpill; // no spill slots
  EXPECT_FALSE(decodeKernel(MF, K, &Err));
  MF = makeMF();
  MF.Params.push_back(MachineParam{Type::Kind::I64, 7});
  EXPECT_FALSE(decodeKernel(MF, K, &Err));
}

// --- Handler table: every typed handler against OpSemantics ---------------

mcode::MachineInstr machineInstr(mcode::MOp Op, Type::Kind T = Type::Kind::I64,
                                 uint16_t Aux = 0) {
  mcode::MachineInstr MI;
  MI.Op = Op;
  MI.TypeTag = T;
  MI.Aux = Aux;
  return MI;
}

mcode::MachineInstr movImm(mcode::Reg Dst, uint64_t Bits) {
  mcode::MachineInstr MI = machineInstr(mcode::MOp::MovImm);
  MI.Dst = Dst;
  MI.Imm = static_cast<int64_t>(Bits);
  return MI;
}

/// An allocated machine function over registers r0-r4 whose r3 and r4 are
/// the two launch arguments.
mcode::MachineFunction machineFunction(
    const char *Name, std::vector<std::vector<mcode::MachineInstr>> Blocks) {
  mcode::MachineFunction MF;
  MF.Name = Name;
  MF.NumRegs = 5;
  MF.Allocated = true;
  MF.Params = {{Type::Kind::Ptr, 3}, {Type::Kind::Ptr, 4}};
  for (auto &Instrs : Blocks) {
    MF.Blocks.emplace_back();
    MF.Blocks.back().Instrs = std::move(Instrs);
  }
  return MF;
}

/// Runs `MovImm r0, A; MovImm r1, B; Op r2, r0, r1; St.i64 r2 -> [r3]; Ret`
/// on one thread and returns the stored bits. r4 points at an 8-byte cell
/// holding \p Cell, for atomics.
uint64_t runTypedOp(Device &Dev, mcode::MachineInstr Op, uint64_t A,
                    uint64_t B, uint64_t Cell = 0) {
  using namespace proteus::mcode;
  constexpr DevicePtr Out = 64, CellAddr = 128;
  Op.Dst = 2;
  Op.Src1 = Op.Op == MOp::AtomicAdd ? 4 : 0; // an atomic updates [r4]
  Op.Src2 = 1;
  MachineInstr St = machineInstr(MOp::St);
  St.Src1 = 2;
  St.Src2 = 3;
  LoadedKernel K;
  std::string Err;
  EXPECT_TRUE(decodeKernel(
      machineFunction("op", {{movImm(0, A), movImm(1, B), Op, St,
                              machineInstr(MOp::Ret)}}),
      K, &Err))
      << Err;
  std::memcpy(Dev.memory().data() + CellAddr, &Cell, 8);
  LaunchResult R =
      launchKernel(Dev, K, Dim3{}, Dim3{}, {{Out}, {CellAddr}});
  EXPECT_TRUE(R.Ok) << R.Error;
  uint64_t Bits = 0;
  std::memcpy(&Bits, Dev.memory().data() + Out, 8);
  return Bits;
}

constexpr Type::Kind AllTypeKinds[] = {Type::Kind::Void, Type::Kind::I1,
                                       Type::Kind::I32,  Type::Kind::I64,
                                       Type::Kind::F32,  Type::Kind::F64,
                                       Type::Kind::Ptr};

/// Integer and floating-point edge operands: INT64_MIN / -1, zero divisors,
/// shift amounts at and past each width, i1/i32 wrap, NaN and signed zeros
/// in both float widths, infinities.
std::vector<uint64_t> edgeOperands() {
  const double Nan = std::nan("");
  const double Inf = std::numeric_limits<double>::infinity();
  return {0,
          1,
          ~0ull,
          2,
          0x8000000000000000ull,
          0x7FFFFFFFFFFFFFFFull,
          0x80000000ull,
          0x7FFFFFFFull,
          0xFFFFFFFFull,
          0x1FFFFFFFFull,
          31,
          32,
          33,
          63,
          64,
          65,
          0x123456789ABCDEF0ull,
          sem::boxF32(std::nanf("")),
          sem::boxF32(-0.0f),
          sem::boxF32(1.5f),
          sem::boxF32(-2.25f),
          sem::boxF32(static_cast<float>(Inf)),
          sem::boxF64(Nan),
          sem::boxF64(-0.0),
          sem::boxF64(3.75),
          sem::boxF64(-Inf),
          sem::boxF64(1e300)};
}

/// Got equals Want bit for bit, or, for floating-point arithmetic, both are
/// NaN at the operation's float width: C++ fixes no NaN payload, and a
/// compiler may commute an add whose operands are two different NaNs.
bool sameResult(uint64_t Got, uint64_t Want, bool FloatArith, Type::Kind T) {
  if (Got == Want)
    return true;
  if (!FloatArith)
    return false;
  if (T == Type::Kind::F32)
    return Got >> 32 == 0 && Want >> 32 == 0 &&
           std::isnan(sem::unboxF32(Got)) && std::isnan(sem::unboxF32(Want));
  return std::isnan(sem::unboxF64(Got)) && std::isnan(sem::unboxF64(Want));
}

TEST(ExecutorTest, EveryTypedHandlerMatchesOpSemantics) {
  using namespace proteus::mcode;
  Context Ctx;
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  const std::vector<uint64_t> Ops = edgeOperands();
  auto sweep = [&](MOp Op, unsigned FirstSub, unsigned LastSub,
                   auto &&Expected, auto &&FloatArith) {
    for (Type::Kind T : AllTypeKinds)
      for (unsigned Sub = FirstSub; Sub <= LastSub; ++Sub) {
        MachineInstr MI = machineInstr(Op, T, static_cast<uint16_t>(Sub));
        for (uint64_t A : Ops)
          for (uint64_t B : Ops) {
            uint64_t Got = runTypedOp(Dev, MI, A, B);
            uint64_t Want = Expected(Sub, Ctx.getType(T), A, B);
            ASSERT_TRUE(sameResult(Got, Want, FloatArith(Sub), T))
                << mopName(Op) << " sub-op " << Sub << " on type kind "
                << static_cast<int>(T) << ", operands 0x" << std::hex << A
                << ", 0x" << B << ": got 0x" << Got << ", want 0x" << Want;
          }
      }
  };
  auto exact = [](unsigned) { return false; };
  sweep(MOp::Binary, static_cast<unsigned>(ValueKind::Add),
        static_cast<unsigned>(ValueKind::SMax),
        [](unsigned K, Type *Ty, uint64_t A, uint64_t B) {
          return sem::evalBinary(static_cast<ValueKind>(K), Ty, A, B);
        },
        [](unsigned K) {
          return K >= static_cast<unsigned>(ValueKind::FAdd) &&
                 K <= static_cast<unsigned>(ValueKind::Pow);
        });
  sweep(MOp::ICmp, 0, static_cast<unsigned>(ICmpPred::UGE),
        [](unsigned P, Type *Ty, uint64_t A, uint64_t B) -> uint64_t {
          return sem::evalICmp(static_cast<ICmpPred>(P), Ty, A, B);
        },
        exact);
  sweep(MOp::FCmp, 0, static_cast<unsigned>(FCmpPred::OGE),
        [](unsigned P, Type *Ty, uint64_t A, uint64_t B) -> uint64_t {
          return sem::evalFCmp(static_cast<FCmpPred>(P), Ty, A, B);
        },
        exact);
  sweep(MOp::Unary, static_cast<unsigned>(ValueKind::FNeg),
        static_cast<unsigned>(ValueKind::Floor),
        [](unsigned K, Type *Ty, uint64_t A, uint64_t) {
          return sem::evalUnary(static_cast<ValueKind>(K), Ty, A);
        },
        [](unsigned) { return true; });
  // Casts: the destination kind rides in Imm2.
  for (Type::Kind To : AllTypeKinds)
    for (Type::Kind From : AllTypeKinds)
      for (unsigned K = static_cast<unsigned>(ValueKind::Trunc);
           K <= static_cast<unsigned>(ValueKind::PtrToInt); ++K) {
        MachineInstr MI =
            machineInstr(MOp::Cast, From, static_cast<uint16_t>(K));
        MI.Imm2 = static_cast<int32_t>(To);
        for (uint64_t A : Ops)
          ASSERT_EQ(runTypedOp(Dev, MI, A, 0),
                    sem::evalCast(static_cast<ValueKind>(K),
                                  Ctx.getType(From), Ctx.getType(To), A))
              << "cast " << K << " from kind " << static_cast<int>(From)
              << " to " << static_cast<int>(To) << ", operand 0x" << std::hex
              << A;
      }
  // PtrAdd sign-extends its index from the operand type; AtomicAdd applies
  // Add or FAdd at the type's width and returns the old cell.
  for (Type::Kind T : AllTypeKinds) {
    Type *Ty = Ctx.getType(T);
    MachineInstr PtrAdd = machineInstr(MOp::PtrAdd, T);
    PtrAdd.Imm = -24;
    MachineInstr Atomic = machineInstr(MOp::AtomicAdd, T);
    const unsigned Bytes = Ty->isVoid() ? 8 : Ty->sizeInBytes();
    const uint64_t Mask = Bytes == 8 ? ~0ull : (1ull << (8 * Bytes)) - 1;
    const ValueKind Update =
        Ty->isFloatingPoint() ? ValueKind::FAdd : ValueKind::Add;
    for (uint64_t A : Ops)
      for (uint64_t B : Ops) {
        ASSERT_EQ(runTypedOp(Dev, PtrAdd, A, B),
                  A + static_cast<uint64_t>(sem::signExtend(Ty, B)) *
                          static_cast<uint64_t>(PtrAdd.Imm))
            << "ptradd on type kind " << static_cast<int>(T);
        ASSERT_EQ(runTypedOp(Dev, Atomic, 0, B, A), A & Mask)
            << "atomic add on type kind " << static_cast<int>(T);
        uint64_t Cell = 0;
        std::memcpy(&Cell, Dev.memory().data() + 128, 8);
        uint64_t Sum = sem::evalBinary(Update, Ty, A & Mask, B);
        ASSERT_TRUE(sameResult(Cell & Mask, Sum & Mask,
                               Update == ValueKind::FAdd, T) &&
                    (Cell & ~Mask) == (A & ~Mask))
            << "atomic add on type kind " << static_cast<int>(T);
      }
  }
}

// --- Error paths: same message, same stores as a per-instruction check ----

/// Stores a loop counter on every trip of an endless loop:
///   b0: r0 = 0; r1 = 1; br b1
///   b1: r0 = r0 + r1; st r0 -> [r3]; br b1
mcode::MachineFunction runawayCounter() {
  using namespace proteus::mcode;
  MachineInstr Add = machineInstr(MOp::Binary, Type::Kind::I64,
                                  static_cast<uint16_t>(ValueKind::Add));
  Add.Dst = Add.Src1 = 0;
  Add.Src2 = 1;
  MachineInstr St = machineInstr(MOp::St);
  St.Src1 = 0;
  St.Src2 = 3;
  MachineInstr Br = machineInstr(MOp::Br);
  Br.Imm = 1;
  return machineFunction("spin",
                         {{movImm(0, 0), movImm(1, 1), Br}, {Add, St, Br}});
}

TEST(ExecutorTest, StepLimitStopsAtTheSameInstruction) {
  // The counter each limit leaves behind, recorded with the per-instruction
  // step check: limit 0 runs nothing, limits 1-4 stop before the first
  // store, and each later store lands on step 3k+2.
  const std::pair<uint64_t, uint64_t> Expected[] = {
      {0, 0},     {1, 0},     {3, 0},     {4, 0},     {5, 1},
      {6, 1},     {7, 1},     {8, 2},     {1000, 332}, {1001, 333},
      {1002, 333}, {1003, 333}};
  LoadedKernel K;
  std::string Err;
  ASSERT_TRUE(decodeKernel(runawayCounter(), K, &Err)) << Err;
  for (auto [Limit, Counter] : Expected) {
    Device Dev(getAmdGcnSimTarget(), 1 << 16);
    LaunchResult R = launchKernel(Dev, K, Dim3{2, 1, 1}, Dim3{2, 1, 1},
                                  {{64}, {0}}, Limit);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, "per-thread step limit exceeded in spin")
        << "limit " << Limit;
    uint64_t Stored = 0;
    std::memcpy(&Stored, Dev.memory().data() + 64, 8);
    EXPECT_EQ(Stored, Counter) << "limit " << Limit;
  }
}

TEST(ExecutorTest, OutOfBoundsStoreKeepsEarlierBlocksStores) {
  // Thread (b, t) stores b + 1 at r3 + b * 0x8000 + t * 8; block 2's
  // address is past the end of a 64 KiB device.
  using namespace proteus::mcode;
  MachineInstr Ctaid = machineInstr(MOp::ReadSpecial, Type::Kind::I32,
                                    static_cast<uint16_t>(SpecialReg::CtaidX));
  Ctaid.Dst = 0;
  MachineInstr Tid = machineInstr(MOp::ReadSpecial, Type::Kind::I32,
                                  static_cast<uint16_t>(SpecialReg::TidX));
  Tid.Dst = 1;
  MachineInstr BlockAddr = machineInstr(MOp::PtrAdd, Type::Kind::I32);
  BlockAddr.Dst = 2;
  BlockAddr.Src1 = 3;
  BlockAddr.Src2 = 0;
  BlockAddr.Imm = 0x8000;
  MachineInstr Addr = BlockAddr;
  Addr.Src1 = 2;
  Addr.Src2 = 1;
  Addr.Imm = 8;
  MachineInstr One = movImm(1, 1);
  MachineInstr Value = machineInstr(MOp::Binary, Type::Kind::I64,
                                    static_cast<uint16_t>(ValueKind::Add));
  Value.Dst = 0;
  Value.Src1 = 0;
  Value.Src2 = 1;
  MachineInstr St = machineInstr(MOp::St);
  St.Src1 = 0;
  St.Src2 = 2;
  LoadedKernel K;
  std::string Err;
  ASSERT_TRUE(decodeKernel(
      machineFunction("oob", {{Ctaid, Tid, BlockAddr, Addr, One, Value, St,
                               machineInstr(MOp::Ret)}}),
      K, &Err))
      << Err;
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  LaunchResult R =
      launchKernel(Dev, K, Dim3{4, 1, 1}, Dim3{4, 1, 1}, {{64}, {0}});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "store out of bounds at 0x10040 in oob");
  for (uint64_t B = 0; B != 2; ++B)
    for (uint64_t T = 0; T != 4; ++T) {
      uint64_t Stored = 0;
      std::memcpy(&Stored, Dev.memory().data() + 64 + B * 0x8000 + T * 8, 8);
      EXPECT_EQ(Stored, B + 1) << "block " << B << " thread " << T;
    }
}

TEST(ExecutorTest, CodeThatFallsOffItsEndIsRejectedAtLoad) {
  using namespace proteus::mcode;
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  std::string Err;
  auto load = [&](const MachineFunction &MF) {
    return Dev.loadKernel(writeObject(MF, GpuArch::AmdGcnSim), &Err);
  };
  // The last block ends without a terminator.
  EXPECT_EQ(load(machineFunction("k", {{machineInstr(MOp::Ret)},
                                       {movImm(0, 1)}})),
            nullptr);
  EXPECT_NE(Err.find("falls off its end"), std::string::npos) << Err;
  // A branch to a trailing empty block.
  MachineInstr Br = machineInstr(MOp::Br);
  Br.Imm = 1;
  EXPECT_EQ(load(machineFunction("k", {{Br}, {}})), nullptr);
  EXPECT_NE(Err.find("malformed br"), std::string::npos) << Err;
  // No code at all.
  EXPECT_EQ(load(machineFunction("k", {})), nullptr);
  // Well-formed: an empty trailing block nothing branches to is harmless.
  EXPECT_NE(load(machineFunction("k", {{machineInstr(MOp::Ret)}, {}})),
            nullptr)
      << Err;
}

TEST(DeviceTest, GlobalsRegisterOnceAndResolve) {
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Init = {1, 2, 3, 4};
  DevicePtr P1 = Dev.registerGlobal("state", 4, Init);
  DevicePtr P2 = Dev.registerGlobal("state", 4, Init);
  EXPECT_EQ(P1, P2);
  EXPECT_EQ(Dev.getSymbolAddress("state"), P1);
  EXPECT_EQ(Dev.getSymbolAddress("ghost"), 0u);
  EXPECT_EQ(Dev.memory()[P1 + 2], 3);
}

TEST(RuntimeTest, MemcpyRoundTripAndSimTime) {
  Device Dev(getNvPtxSimTarget(), 1 << 20);
  DevicePtr P = 0;
  ASSERT_EQ(gpuMalloc(Dev, &P, 4096), GpuError::Success);
  std::vector<uint8_t> Host(4096);
  for (size_t I = 0; I != Host.size(); ++I)
    Host[I] = static_cast<uint8_t>(I * 7);
  double T0 = Dev.simulatedSeconds();
  ASSERT_EQ(gpuMemcpyHtoD(Dev, P, Host.data(), Host.size()),
            GpuError::Success);
  EXPECT_GT(Dev.simulatedSeconds(), T0);
  std::vector<uint8_t> Back(4096, 0);
  ASSERT_EQ(gpuMemcpyDtoH(Dev, Back.data(), P, Back.size()),
            GpuError::Success);
  EXPECT_EQ(Host, Back);
  // Bad ranges fail.
  EXPECT_EQ(gpuMemcpyHtoD(Dev, (1u << 20) - 8, Host.data(), 4096),
            GpuError::InvalidValue);
}

/// Compiles \p F for \p TI, loads it and launches over a 1-D grid.
LaunchStats runOnSim(Function &F, const TargetInfo &TI, Device &Dev,
                     const std::vector<uint64_t> &Args, uint32_t Blocks,
                     uint32_t Threads) {
  std::vector<uint8_t> Obj = compileKernelToObject(F, TI);
  LoadedKernel *K = nullptr;
  std::string Err;
  EXPECT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  std::vector<KernelArg> KArgs;
  for (uint64_t A : Args)
    KArgs.push_back(KernelArg{A});
  EXPECT_EQ(gpuLaunchKernel(Dev, *K, Dim3{Blocks, 1, 1}, Dim3{Threads, 1, 1},
                            KArgs, &Err),
            GpuError::Success)
      << Err;
  return Dev.LastLaunch;
}

/// Differential harness: run \p F on the interpreter and on the simulator
/// (for both targets), same initial memory; all three images must agree.
void expectSimMatchesInterp(Function &F, const std::vector<uint64_t> &Args,
                            const std::vector<uint8_t> &InitialMem,
                            uint32_t Blocks, uint32_t Threads) {
  std::vector<uint8_t> Ref = InitialMem;
  {
    std::vector<uint64_t> A = Args;
    interpretLaunch(F, A, Ref, Blocks, Threads);
  }
  for (const TargetInfo *TI :
       {&getAmdGcnSimTarget(), &getNvPtxSimTarget()}) {
    Device Dev(*TI, 1 << 22);
    // Device offsets start at 64 like the allocator; place data at the same
    // offsets as the interpreter image by copying wholesale.
    ASSERT_LE(InitialMem.size(), Dev.memory().size());
    std::copy(InitialMem.begin(), InitialMem.end(), Dev.memory().begin());
    runOnSim(F, *TI, Dev, Args, Blocks, Threads);
    std::vector<uint8_t> Got(Dev.memory().begin(),
                             Dev.memory().begin() +
                                 static_cast<long>(InitialMem.size()));
    EXPECT_EQ(Ref, Got) << "mismatch vs interpreter on " << TI->Name;
  }
}

TEST(ExecutorTest, DaxpyMatchesInterpreterBothTargets) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  constexpr uint32_t N = 100;
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *X = reinterpret_cast<double *>(Mem.data());
  for (uint32_t I = 0; I != N; ++I) {
    X[I] = 0.25 * I;
    X[N + I] = 7.5 - I;
  }
  std::vector<uint64_t> Args = {sem::boxF64(1.75), 0, N * sizeof(double), N};
  expectSimMatchesInterp(*F, Args, Mem, 4, 32);
}

TEST(ExecutorTest, LoopSumMatchesInterpreterAfterO3) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  runO3(*F);
  constexpr uint32_t N = 16;
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  for (uint32_t I = 0; I != N; ++I)
    In[I] = 1.0 / (1.0 + I);
  std::vector<uint64_t> Args = {0, N * sizeof(double), 23};
  expectSimMatchesInterp(*F, Args, Mem, 1, N);
}

TEST(ExecutorTest, SpecializedAndUnrolledStillMatches) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  specializeArguments(*F, {{2, 13}});
  specializeLaunchBounds(*F, 16);
  runO3(*F);
  constexpr uint32_t N = 16;
  std::vector<uint8_t> Mem(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Mem.data());
  for (uint32_t I = 0; I != N; ++I)
    In[I] = 3.0 * I - 10.0;
  // The folded argument is still passed (ABI unchanged) but ignored.
  std::vector<uint64_t> Args = {0, N * sizeof(double), 13};
  expectSimMatchesInterp(*F, Args, Mem, 1, N);
}

// Property sweep: correctness must hold for every register budget, from
// spill-everything up to spill-nothing.
class RegBudgetTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RegBudgetTest, LoopSumCorrectUnderPressure) {
  unsigned Budget = GetParam();
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildLoopSumKernel(M);
  runO3(*F);

  constexpr uint32_t N = 8;
  std::vector<uint8_t> Ref(2 * N * sizeof(double));
  auto *In = reinterpret_cast<double *>(Ref.data());
  for (uint32_t I = 0; I != N; ++I)
    In[I] = 0.5 + I;
  std::vector<uint8_t> SimInit = Ref;
  std::vector<uint64_t> Args = {0, N * sizeof(double), 9};
  interpretLaunch(*F, Args, Ref, 1, N);

  mcode::MachineFunction MF = selectInstructions(*F);
  allocateRegisters(MF, Budget);
  std::vector<uint8_t> Obj = writeObject(MF, GpuArch::AmdGcnSim);

  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::copy(SimInit.begin(), SimInit.end(), Dev.memory().begin());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  std::vector<KernelArg> KArgs = {{0}, {N * sizeof(double)}, {9}};
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{N, 1, 1}, KArgs,
                            &Err),
            GpuError::Success)
      << Err;
  std::vector<uint8_t> Got(Dev.memory().begin(),
                           Dev.memory().begin() +
                               static_cast<long>(Ref.size()));
  EXPECT_EQ(Ref, Got) << "budget " << Budget;
}

INSTANTIATE_TEST_SUITE_P(Budgets, RegBudgetTest,
                         ::testing::Values(8u, 10u, 12u, 16u, 24u, 32u, 64u,
                                           128u, 256u));

TEST(ExecutorTest, CountersAreConsistent) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  constexpr uint32_t N = 64;
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  LaunchStats S =
      runOnSim(*F, getAmdGcnSimTarget(), Dev,
               {sem::boxF64(2.0), 64, 64 + N * 8, N}, 2, 32);
  EXPECT_EQ(S.Kernel, "daxpy");
  EXPECT_EQ(S.totalThreads(), 64u);
  EXPECT_EQ(S.MemLoads, 2u * N); // x and y
  EXPECT_EQ(S.MemStores, N);
  EXPECT_GT(S.VALUInsts, 0u);
  EXPECT_GT(S.SALUInsts, 0u);
  EXPECT_GT(S.DurationSec, 0.0);
  EXPECT_GT(S.Occupancy, 0.0);
  EXPECT_EQ(S.TotalInstrs,
            S.VALUInsts + S.SALUInsts + S.MemLoads + S.MemStores +
                S.SpillLoads + S.SpillStores + S.Atomics + S.Branches +
                S.Barriers + /*ret*/ S.totalThreads());
}

TEST(ExecutorTest, GlobalRelocationsResolveAtLoad) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  M.createGlobal("bias", Ctx.getF64Ty(), 1,
                 std::vector<uint8_t>(8, 0)); // patched below
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *G = M.getGlobal("bias");
  Value *V = B.createLoad(Ctx.getF64Ty(), G);
  B.createStore(B.createFAdd(V, B.getDouble(1.0)), F->getArg(0));
  B.createRet();

  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  double BiasVal = 41.0;
  std::vector<uint8_t> Init(8);
  std::memcpy(Init.data(), &BiasVal, 8);
  ASSERT_EQ(gpuRegisterVar(Dev, "bias", 8, Init), GpuError::Success);

  DevicePtr OutP = 0;
  ASSERT_EQ(gpuMalloc(Dev, &OutP, 8), GpuError::Success);
  LaunchStats S = runOnSim(*F, getAmdGcnSimTarget(), Dev, {OutP}, 1, 1);
  (void)S;
  double Out = 0;
  ASSERT_EQ(gpuMemcpyDtoH(Dev, &Out, OutP, 8), GpuError::Success);
  EXPECT_DOUBLE_EQ(Out, 42.0);
}

TEST(ExecutorTest, UnresolvedGlobalFailsLoad) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  M.createGlobal("ghost", Ctx.getF64Ty(), 1);
  Function *F = M.createFunction("k", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  B.createLoad(Ctx.getF64Ty(), M.getGlobal("ghost"));
  B.createRet();
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  Device Dev(getAmdGcnSimTarget(), 1 << 20); // "ghost" not registered
  LoadedKernel *K = nullptr;
  std::string Err;
  EXPECT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("ghost"), std::string::npos);
}

TEST(ExecutorTest, OutOfBoundsLaunchFailsCleanly) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  // Pointers far outside memory.
  std::vector<KernelArg> Args = {{sem::boxF64(1.0)},
                                 {1ull << 30},
                                 {1ull << 31},
                                 {32}};
  EXPECT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{32, 1, 1}, Args,
                            &Err),
            GpuError::LaunchFailure);
  EXPECT_NE(Err.find("out of bounds"), std::string::npos);
}

TEST(PerfModelTest, SpillsAndOccupancyDriveDuration) {
  // Same instruction mix, different register pressure: more registers used
  // reduces occupancy and must not speed things up; adding spill traffic
  // must slow things down.
  const TargetInfo &TI = getAmdGcnSimTarget();
  LaunchStats Base;
  Base.Blocks = 1000;
  Base.ThreadsPerBlock = 256;
  Base.TotalInstrs = 100'000'000;
  Base.VALUInsts = 80'000'000;
  Base.SALUInsts = 10'000'000;
  Base.MemLoads = 9'000'000;
  Base.MemStores = 1'000'000;
  Base.L2Hits = 9'000'000;
  Base.L2Misses = 1'000'000;
  Base.RegsUsed = 64;
  applyPerfModel(TI, Base);

  LaunchStats Spilly = Base;
  Spilly.SpillLoads = 30'000'000;
  Spilly.SpillStores = 10'000'000;
  Spilly.SpillSlots = 40; // resident scratch saturates the L2 model
  Spilly.TotalInstrs += 40'000'000;
  applyPerfModel(TI, Spilly);
  EXPECT_GT(Spilly.DurationSec, Base.DurationSec * 1.15)
      << "spill traffic must hurt";
  EXPECT_LT(Spilly.l2HitRatio(), Base.l2HitRatio())
      << "scratch pollution must degrade the observed hit ratio";

  LaunchStats HighRegs = Base;
  HighRegs.RegsUsed = 256;
  applyPerfModel(TI, HighRegs);
  EXPECT_LT(HighRegs.Occupancy, Base.Occupancy);
  EXPECT_GE(HighRegs.DurationSec, Base.DurationSec);

  // Eliminating instructions shortens the kernel.
  LaunchStats Folded = Base;
  Folded.VALUInsts = 40'000'000;
  Folded.TotalInstrs -= 40'000'000;
  applyPerfModel(TI, Folded);
  EXPECT_LT(Folded.DurationSec, Base.DurationSec);
}

} // namespace
