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
#include "gpu/PerfModel.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

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

TEST(DeviceMemoryTest, SnapshotRestoreIsByteIdentical) {
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  DeviceMemory &Mem = Dev.memory();
  Mem[100] = 1;
  Mem[Mem.size() - 1] = 2;
  std::vector<uint8_t> Snapshot = Mem;
  ASSERT_EQ(Snapshot.size(), Mem.size());
  EXPECT_TRUE(Mem == Snapshot);
  Mem[100] = 9;
  Mem[5000] = 3;
  Mem[Mem.size() - 1] = 0;
  EXPECT_TRUE(Mem != Snapshot);
  Mem = Snapshot;
  EXPECT_TRUE(Mem == Snapshot);
  EXPECT_EQ(Mem[100], 1);
  EXPECT_EQ(Mem[5000], 0);
  EXPECT_EQ(Mem[Mem.size() - 1], 2);
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
