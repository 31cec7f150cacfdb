//===- gpu_extras_test.cpp - device model detail tests ----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Coverage of the simulator details not exercised by the main differential
// suites: multi-dimensional launch geometry, the L2 cache model, transfer
// timing, the profiler accumulation, barriers, and failure paths.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/Compiler.h"
#include "gpu/PerfModel.h"
#include "gpu/Runtime.h"
#include "ir/Context.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus_test;

namespace {

/// Kernel writing its full 3-D coordinates: out[linear] = encoded id.
Function *buildGeometryKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction("geom", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tx = B.createThreadIdx(0);
  Value *TyV = B.createThreadIdx(1);
  Value *Tz = B.createThreadIdx(2);
  Value *Bx = B.createBlockIdx(0);
  Value *Dx = B.createBlockDim(0);
  Value *Dy = B.createBlockDim(1);
  Value *Dz = B.createBlockDim(2);
  Value *Gx = B.createGridDim(0);
  // linear thread = ((bx*dz + tz)*dy + ty)*dx + tx, then scale by gridDim
  // presence to touch every special register.
  Value *L1 = B.createAdd(B.createMul(Bx, Dz), Tz);
  Value *L2 = B.createAdd(B.createMul(L1, Dy), TyV);
  Value *L3 = B.createAdd(B.createMul(L2, Dx), Tx);
  Value *Code = B.createAdd(B.createMul(L3, B.getInt32(100)), Gx);
  Value *P = B.createGep(Ctx.getI32Ty(), F->getArg(0), L3);
  B.createStore(Code, P);
  B.createRet();
  return F;
}

TEST(GeometryTest, ThreeDimensionalBlocksCoverAllThreads) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildGeometryKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr Out = 0;
  constexpr uint32_t Gx = 3, Bx = 4, By = 2, Bz = 2;
  constexpr uint32_t Total = Gx * Bx * By * Bz;
  ASSERT_EQ(gpuMalloc(Dev, &Out, Total * 4), GpuError::Success);
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{Gx, 1, 1}, Dim3{Bx, By, Bz},
                            {{Out}}, &Err),
            GpuError::Success)
      << Err;
  std::vector<int32_t> Host(Total);
  gpuMemcpyDtoH(Dev, Host.data(), Out, Total * 4);
  for (uint32_t I = 0; I != Total; ++I)
    EXPECT_EQ(Host[I], static_cast<int32_t>(I * 100 + Gx)) << "thread " << I;
  EXPECT_EQ(Dev.LastLaunch.totalThreads(), Total);
}

/// Kernel recording every thread's ids: out[6 * linear + k] holds tid.x,
/// tid.y, tid.z, ctaid.x, ctaid.y, ctaid.z, where linear numbers the
/// threads x-fastest within a block and blocks x-fastest within the grid.
Function *buildIdKernel(Module &M) {
  Context &Ctx = M.getContext();
  IRBuilder B(Ctx);
  Function *F = M.createFunction("ids", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tid[3], *Ctaid[3], *Ntid[3], *Nctaid[3];
  for (uint8_t D = 0; D != 3; ++D) {
    Tid[D] = B.createThreadIdx(D);
    Ctaid[D] = B.createBlockIdx(D);
    Ntid[D] = B.createBlockDim(D);
    Nctaid[D] = B.createGridDim(D);
  }
  auto linear = [&](Value *const *Id, Value *const *Extent) {
    return B.createAdd(
        B.createMul(B.createAdd(B.createMul(Id[2], Extent[1]), Id[1]),
                    Extent[0]),
        Id[0]);
  };
  Value *BlockThreads = B.createMul(B.createMul(Ntid[0], Ntid[1]), Ntid[2]);
  Value *Linear = B.createAdd(B.createMul(linear(Ctaid, Nctaid), BlockThreads),
                              linear(Tid, Ntid));
  Value *Base = B.createMul(Linear, B.getInt32(6));
  Value *Ids[6] = {Tid[0], Tid[1], Tid[2], Ctaid[0], Ctaid[1], Ctaid[2]};
  for (uint32_t K = 0; K != 6; ++K)
    B.createStore(Ids[K], B.createGep(Ctx.getI32Ty(), F->getArg(0),
                                      B.createAdd(Base, B.getInt32(K))));
  B.createRet();
  return F;
}

TEST(GeometryTest, EveryThreadOfA3DGridSeesItsIds) {
  // Non-power-of-two extents in every dimension, so the executor's stepped
  // tid counters must wrap at each block extent exactly.
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildIdKernel(M);
  const Dim3 Grid{2, 3, 2};
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim})
    for (Dim3 Block : {Dim3{3, 5, 2}, Dim3{1, 1, 5}}) {
      SCOPED_TRACE(std::string(gpuArchName(Arch)) + " block " +
                   std::to_string(Block.X) + "x" + std::to_string(Block.Y) +
                   "x" + std::to_string(Block.Z));
      Device Dev(getTarget(Arch), 1 << 20);
      LoadedKernel *K = nullptr;
      std::string Err;
      ASSERT_EQ(gpuModuleLoad(Dev, &K, compileKernelToObject(*F, getTarget(Arch)),
                              &Err),
                GpuError::Success)
          << Err;
      const uint64_t Threads = Grid.count() * Block.count();
      DevicePtr Out = 0;
      ASSERT_EQ(gpuMalloc(Dev, &Out, Threads * 24), GpuError::Success);
      ASSERT_EQ(gpuLaunchKernel(Dev, *K, Grid, Block, {{Out}}, &Err),
                GpuError::Success)
          << Err;
      std::vector<uint32_t> Host(Threads * 6);
      gpuMemcpyDtoH(Dev, Host.data(), Out, Threads * 24);
      uint64_t Linear = 0;
      for (uint32_t Bz = 0; Bz != Grid.Z; ++Bz)
        for (uint32_t By = 0; By != Grid.Y; ++By)
          for (uint32_t Bx = 0; Bx != Grid.X; ++Bx)
            for (uint32_t Tz = 0; Tz != Block.Z; ++Tz)
              for (uint32_t Ty = 0; Ty != Block.Y; ++Ty)
                for (uint32_t Tx = 0; Tx != Block.X; ++Tx, ++Linear) {
                  const uint32_t Want[6] = {Tx, Ty, Tz, Bx, By, Bz};
                  for (unsigned I = 0; I != 6; ++I)
                    ASSERT_EQ(Host[Linear * 6 + I], Want[I])
                        << "thread " << Linear << " id " << I;
                }
      EXPECT_EQ(Dev.LastLaunch.totalThreads(), Threads);
    }
}

/// The L2 model with run-time divisions and 64-bit LRU stamps: the
/// reference the shipped model (shifts, masks, 32-bit stamps renumbered on
/// wrap) must match access for access.
class DivisionL2 {
public:
  DivisionL2(uint64_t SizeBytes, unsigned LineBytes, unsigned Ways)
      : LineBytes(LineBytes), Ways(Ways),
        NumSets(std::max<uint64_t>(1, SizeBytes / LineBytes / Ways)),
        Tags(NumSets * Ways, 0), LastUsed(NumSets * Ways, 0) {}

  bool access(uint64_t Address) {
    uint64_t Line = Address / LineBytes + 1;
    size_t Set = static_cast<size_t>(Line % NumSets);
    uint64_t *SetTags = &Tags[Set * Ways];
    uint64_t *SetUsed = &LastUsed[Set * Ways];
    ++Clock;
    unsigned VictimWay = 0;
    uint64_t VictimStamp = ~uint64_t(0);
    for (unsigned W = 0; W != Ways; ++W) {
      if (SetTags[W] == Line) {
        SetUsed[W] = Clock;
        return true;
      }
      if (SetUsed[W] < VictimStamp) {
        VictimStamp = SetUsed[W];
        VictimWay = W;
      }
    }
    SetTags[VictimWay] = Line;
    SetUsed[VictimWay] = Clock;
    return false;
  }

  uint64_t Clock = 0;

private:
  uint64_t LineBytes;
  unsigned Ways;
  uint64_t NumSets;
  std::vector<uint64_t> Tags, LastUsed;
};

/// Seeded addresses: mostly a working set a few times the cache, some
/// repeats of recent addresses, some far above device memory (the
/// executor's per-thread scratch lines).
std::vector<uint64_t> l2Addresses(uint64_t Seed, size_t N, uint64_t Span) {
  std::mt19937_64 R(Seed);
  std::vector<uint64_t> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    const uint64_t Pick = R() % 10;
    if (Pick < 2 && I >= 16)
      Out.push_back(Out[I - 1 - R() % 16]);
    else if (Pick < 3)
      Out.push_back(R() >> (R() % 24));
    else
      Out.push_back(R() % Span);
  }
  return Out;
}

TEST(L2CacheTest, MatchesTheDivisionModelOnBothTargets) {
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim}) {
    SCOPED_TRACE(gpuArchName(Arch));
    const uint64_t Bytes = getTarget(Arch).L2Bytes;
    L2Cache Shipped(Bytes, 128, 16);
    DivisionL2 Reference(Bytes, 128, 16);
    EXPECT_EQ(Shipped.numSets(),
              Arch == GpuArch::AmdGcnSim ? 4096u : 3072u);
    for (uint64_t Line : {uint64_t(0), uint64_t(1), uint64_t(4095),
                          uint64_t(3071), uint64_t(1) << 57, ~uint64_t(0)})
      EXPECT_EQ(Shipped.setOf(Line), Line % Shipped.numSets()) << Line;
    const std::vector<uint64_t> Addrs = l2Addresses(17, 1000000, 3 * Bytes);
    uint64_t Hits = 0;
    for (size_t I = 0; I != Addrs.size(); ++I) {
      const uint64_t Line = (Addrs[I] >> 7) + 1;
      ASSERT_EQ(Shipped.setOf(Line), Line % Shipped.numSets()) << Line;
      const bool Hit = Shipped.access(Addrs[I]);
      ASSERT_EQ(Hit, Reference.access(Addrs[I]))
          << "access " << I << " at 0x" << std::hex << Addrs[I];
      Hits += Hit;
    }
    // Both outcomes must occur, or the comparison proves little.
    EXPECT_GT(Hits, Addrs.size() / 10);
    EXPECT_LT(Hits, Addrs.size() * 9 / 10);
  }
}

TEST(L2CacheTest, LruOrderSurvivesTheClockWrap) {
  // A small cache (12 sets: an odd factor too) started just below the
  // 32-bit wrap: past it, the renumbered stamps must keep every set's LRU
  // order, so the hit/miss sequence matches 64-bit stamps that never wrap.
  constexpr uint64_t Bytes = 12 * 4 * 128;
  L2Cache Shipped(Bytes, 128, 4);
  DivisionL2 Reference(Bytes, 128, 4);
  const uint32_t Start = 0xffffffffu - 20000;
  Shipped.setClockForTesting(Start);
  Reference.Clock = Start;
  const std::vector<uint64_t> Addrs = l2Addresses(29, 100000, 3 * Bytes);
  for (size_t I = 0; I != Addrs.size(); ++I)
    ASSERT_EQ(Shipped.access(Addrs[I]), Reference.access(Addrs[I]))
        << "access " << I << " (clock wrapped after 20001)";
  EXPECT_GT(Reference.Clock, uint64_t(1) << 32);
}

TEST(L2CacheTest, HitsMissesAndEviction) {
  L2Cache C(/*SizeBytes=*/16 * 128 * 2, /*LineBytes=*/128, /*Ways=*/2);
  EXPECT_FALSE(C.access(0));    // cold miss
  EXPECT_TRUE(C.access(64));    // same line
  EXPECT_FALSE(C.access(4096)); // different set/line
  EXPECT_TRUE(C.access(0));
  // Fill one set beyond associativity: set count = 16, ways = 2.
  // Lines mapping to set S: line % 16 == S.
  uint64_t LineBytes = 128, Sets = 16;
  // line numbers are address/128 + 1; choose addresses so (line % 16) == 1.
  auto AddrForLine = [&](uint64_t K) {
    return (K * Sets + 0) * LineBytes; // lines K*16+1 -> set 1
  };
  C.access(AddrForLine(1));
  C.access(AddrForLine(2));
  C.access(AddrForLine(3)); // evicts the LRU of the set
  unsigned Hits = 0;
  for (uint64_t K = 1; K <= 3; ++K)
    Hits += C.access(AddrForLine(K)) ? 1 : 0;
  EXPECT_LT(Hits, 3u) << "a 2-way set cannot retain 3 lines";
  C.reset();
  EXPECT_FALSE(C.access(0)) << "reset must drop all lines";
}

TEST(TransferModelTest, TimeScalesWithSize) {
  const TargetInfo &TI = getAmdGcnSimTarget();
  double Small = transferSeconds(TI, 1024);
  double Large = transferSeconds(TI, 64 * 1024 * 1024);
  EXPECT_GT(Large, Small);
  EXPECT_GT(Small, 0.0);
  // Latency floor dominates tiny copies.
  EXPECT_NEAR(transferSeconds(TI, 1) , transferSeconds(TI, 512), 1e-6);
}

TEST(ProfilerTest, AccumulatesAcrossLaunches) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr X = 0, Y = 0;
  gpuMalloc(Dev, &X, 64 * 8);
  gpuMalloc(Dev, &Y, 64 * 8);
  std::vector<KernelArg> Args = {{sem::boxF64(1.0)}, {X}, {Y}, {64}};
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{2, 1, 1}, Dim3{32, 1, 1}, Args,
                              &Err),
              GpuError::Success);
  const LaunchStats &P = Dev.Profile.at("daxpy");
  EXPECT_EQ(P.MemStores, 3u * 64);
  EXPECT_EQ(P.Blocks, 3u * 2);
  // Durations vary slightly per launch (L2 warm-up): check accumulation.
  EXPECT_GT(P.DurationSec, 2.0 * Dev.LastLaunch.DurationSec);
  EXPECT_GT(Dev.kernelSeconds(), 0.0);
}

TEST(ExecutorTest, BarrierCountsAndRuns) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("bar", Ctx.getVoidTy(), {Ctx.getPtrTy()},
                                 {"out"}, FunctionKind::Kernel);
  B.setInsertPoint(F->createBlock("entry", Ctx.getVoidTy()));
  Value *Tid = B.createThreadIdx(0);
  B.createBarrier();
  B.createStore(Tid, B.createGep(Ctx.getI32Ty(), F->getArg(0), Tid));
  B.createBarrier();
  B.createRet();
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  DevicePtr Out = 0;
  gpuMalloc(Dev, &Out, 16 * 4);
  ASSERT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{16, 1, 1}, {{Out}},
                            &Err),
            GpuError::Success);
  EXPECT_EQ(Dev.LastLaunch.Barriers, 2u * 16);
}

TEST(ExecutorTest, WrongArgumentCountFails) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  Device Dev(getAmdGcnSimTarget(), 1 << 20);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  EXPECT_EQ(gpuLaunchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{1, 1, 1},
                            {{1}, {2}}, &Err),
            GpuError::LaunchFailure);
  EXPECT_NE(Err.find("argument count"), std::string::npos);
}

TEST(ExecutorTest, InfiniteLoopHitsStepLimit) {
  Context Ctx;
  Module M(Ctx, "m");
  IRBuilder B(Ctx);
  Function *F = M.createFunction("spin", Ctx.getVoidTy(), {}, {},
                                 FunctionKind::Kernel);
  BasicBlock *Entry = F->createBlock("entry", Ctx.getVoidTy());
  BasicBlock *Loop = F->createBlock("loop", Ctx.getVoidTy());
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  B.createBr(Loop);
  Device Dev(getAmdGcnSimTarget(), 1 << 16);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getAmdGcnSimTarget());
  LoadedKernel *K = nullptr;
  std::string Err;
  ASSERT_EQ(gpuModuleLoad(Dev, &K, Obj, &Err), GpuError::Success) << Err;
  LaunchResult R = launchKernel(Dev, *K, Dim3{1, 1, 1}, Dim3{1, 1, 1}, {},
                                /*MaxStepsPerThread=*/1000);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(MachineIRTest, DisassemblyIsReadable) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  mcode::MachineFunction MF = compileKernel(*F, getAmdGcnSimTarget());
  std::string Text = mcode::printMachineFunction(MF);
  EXPECT_NE(Text.find("daxpy"), std::string::npos);
  EXPECT_NE(Text.find("ld.global"), std::string::npos);
  EXPECT_NE(Text.find("st.global"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(PerfModelTest, ZeroInstructionLaunchPaysOnlyLaunchLatency) {
  // An empty kernel (or a body guarded off for every thread) retires no
  // instructions; the model must not divide by the zero counts and the
  // launch costs exactly the fixed launch latency.
  for (const TargetInfo *T :
       {&getAmdGcnSimTarget(), &getNvPtxSimTarget()}) {
    LaunchStats S;
    S.Kernel = "empty";
    S.Blocks = 4;
    S.ThreadsPerBlock = 64;
    S.RegsUsed = 8;
    applyPerfModel(*T, S);
    EXPECT_DOUBLE_EQ(S.DurationSec, 4e-6) << T->Name;
    EXPECT_EQ(S.IPC, 0.0) << T->Name;
    EXPECT_EQ(S.VALUBusyPct, 0.0) << T->Name;
    EXPECT_EQ(S.StallPct, 0.0) << T->Name;
    EXPECT_TRUE(std::isfinite(S.Occupancy)) << T->Name;
    EXPECT_GT(S.Occupancy, 0.0) << T->Name;
    EXPECT_LE(S.Occupancy, 1.0) << T->Name;
  }
}

TEST(DeviceTest, CrossArchObjectRejected) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildDaxpyKernel(M);
  std::vector<uint8_t> Obj = compileKernelToObject(*F, getNvPtxSimTarget());
  Device Amd(getAmdGcnSimTarget(), 1 << 16);
  LoadedKernel *K = nullptr;
  std::string Err;
  EXPECT_EQ(gpuModuleLoad(Amd, &K, Obj, &Err), GpuError::InvalidValue);
  EXPECT_NE(Err.find("nvptx-sim"), std::string::npos);
}

} // namespace
