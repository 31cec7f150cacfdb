//===- codegen_golden_test.cpp - pinned compiler output -------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Pins what the compiler emits, so host-side compile-speed work can prove
// it left the generated code untouched. tests/golden/codegen_golden.txt
// holds one line per compiled artifact with a digest of the printed O3
// output and of the final object bytes:
//
//  * every AOT kernel object of the six HeCBench-sim programs;
//  * every Final-tier JIT specialization those programs compile. The
//    program's launch sequence runs through a real JitRuntime; each
//    distinct specialization key is then re-derived step by step
//    (materialize, link globals, specialize, O3, backend) to print its O3
//    output, and the re-derived object must equal the one the runtime
//    cached;
//  * seeded RandomKernel.h kernels, through the full pipeline and through
//    the Tier-0 flavor (fast preset, fast register allocation).
//
// All on both architectures. A change that means to move the output
// regenerates the file from the "actual" lines this test prints.
//
//===----------------------------------------------------------------------===//

#include "RandomKernel.h"

#include "bitcode/ModuleIndex.h"
#include "codegen/Compiler.h"
#include "gpu/Runtime.h"
#include "hecbench/Benchmark.h"
#include "ir/Context.h"
#include "ir/IRPrinter.h"
#include "ir/OpSemantics.h"
#include "jit/AotCompiler.h"
#include "jit/Program.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"
#include "transforms/O3Pipeline.h"
#include "transforms/SpecializeArgs.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace pir;
using namespace proteus;
using namespace proteus::gpu;
using namespace proteus::hecbench;
using namespace proteus_test;

namespace {

constexpr uint64_t RandomSeeds = 48;
constexpr uint32_t RandomThreads = 32;

std::string digest(std::string_view Bytes) {
  FNV1aHash H;
  H.update(Bytes);
  return hashToHex(H.digest());
}

std::string digest(const std::vector<uint8_t> &Bytes) {
  return digest(std::string_view(reinterpret_cast<const char *>(Bytes.data()),
                                 Bytes.size()));
}

std::string artifactLine(const std::string &Prefix, const std::string &IR,
                         const std::vector<uint8_t> &Object) {
  return formatString("%s ir=%s obj=%s bytes=%zu", Prefix.c_str(),
                      digest(IR).c_str(), digest(Object).c_str(),
                      Object.size());
}

/// The JIT's compile of one specialization, step for step (JitRuntime::
/// compileSpecialization with the default JitConfig on one device).
std::pair<std::string, std::vector<uint8_t>>
rederive(const std::vector<uint8_t> &Bitcode, const SpecializationKey &Key,
         const LoadedProgram &LP) {
  std::string Error;
  auto Index = KernelModuleIndex::create(Bitcode, Error);
  EXPECT_TRUE(Index) << Error;
  if (!Index)
    return {};
  Context Ctx;
  std::unique_ptr<Module> M =
      Index->materialize(Ctx, Key.KernelSymbol, nullptr);
  Function *F = M ? M->getFunction(Key.KernelSymbol) : nullptr;
  EXPECT_TRUE(F) << Key.KernelSymbol;
  if (!F)
    return {};
  for (const auto &G : M->globals())
    if (G->hasUses())
      G->replaceAllUsesWith(Ctx.getConstantPtr(LP.globalAddress(G->getName())));
  if (!Key.FoldedArgs.empty())
    specializeArguments(*F, Key.FoldedArgs);
  specializeLaunchBounds(*F, Key.LaunchBoundsThreads);
  buildO3Pipeline()->run(*M);
  return {printModule(*M), compileKernelToObject(*F, getTarget(Key.Arch))};
}

/// AOT objects and Final-tier JIT specializations of one program.
std::vector<std::string> programLines(const Benchmark &B, GpuArch Arch) {
  std::string Prefix = B.name() + " " + gpuArchName(Arch);
  Context Ctx;
  std::unique_ptr<Module> Src = B.buildModule(Ctx);
  AotOptions AO;
  AO.Arch = Arch;
  AO.EnableProteusExtensions = true;
  CompiledProgram Prog = aotCompile(*Src, AO);

  std::vector<std::string> Out;
  for (const auto &[Symbol, Object] : Prog.Image.KernelObjects)
    Out.push_back(formatString("%s aot %s obj=%s bytes=%zu", Prefix.c_str(),
                               Symbol.c_str(), digest(Object).c_str(),
                               Object.size()));

  Device Dev(getTarget(Arch), 1ull << 28);
  JitConfig JC;
  JC.UsePersistentCache = false;
  JitRuntime Jit(Dev, Prog.ModuleId, JC);
  LoadedProgram LP(Dev, Prog, &Jit);
  EXPECT_TRUE(LP.ok()) << LP.error();
  std::map<std::string, DevicePtr> Buffers;
  for (const BufferSpec &BS : B.buffers()) {
    DevicePtr P = 0;
    EXPECT_EQ(gpuMalloc(Dev, &P, BS.Init.size()), GpuError::Success);
    gpuMemcpyHtoD(Dev, P, BS.Init.data(), BS.Init.size());
    Buffers[BS.Name] = P;
  }

  std::set<uint64_t> Seen;
  std::vector<SpecializationKey> Keys;
  for (const LaunchSpec &L : B.launches()) {
    std::vector<KernelArg> Args;
    for (const ArgSpec &A : L.Args)
      Args.push_back(KernelArg{A.K == ArgSpec::Kind::Scalar
                                   ? A.Bits
                                   : Buffers.at(A.BufferName) + A.ByteOffset});
    std::string Err;
    EXPECT_EQ(LP.launch(L.Symbol, L.Grid, L.Block, Args, &Err),
              GpuError::Success)
        << Prefix << " @" << L.Symbol << ": " << Err;
    if (!Prog.JitKernels.count(L.Symbol))
      continue;
    SpecializationKey Key;
    Key.ModuleId = Prog.ModuleId;
    Key.KernelSymbol = L.Symbol;
    Key.Arch = Arch;
    for (uint32_t OneBased : Prog.JitArgIndices[L.Symbol])
      Key.FoldedArgs.push_back(
          RuntimeArgValue{OneBased - 1, Args[OneBased - 1].Bits});
    Key.LaunchBoundsThreads = static_cast<uint32_t>(L.Block.count());
    if (Seen.insert(computeSpecializationHash(Key)).second)
      Keys.push_back(std::move(Key));
  }
  EXPECT_EQ(Jit.stats().Compilations, Keys.size()) << Prefix;

  for (const SpecializationKey &Key : Keys) {
    uint64_t Hash = computeSpecializationHash(Key);
    std::optional<CachedCode> Cached = Jit.cache().lookupEntry(Hash);
    EXPECT_TRUE(Cached && Cached->Tier == CodeTier::Final)
        << Prefix << " @" << Key.KernelSymbol << " not cached as Final";
    const std::vector<uint8_t> &Bitcode =
        Arch == GpuArch::AmdGcnSim
            ? Prog.Image.JitSections.at(Key.KernelSymbol)
            : Prog.Image.JitDataGlobals.at(Key.KernelSymbol);
    auto [IR, Object] = rederive(Bitcode, Key, LP);
    if (Cached) {
      EXPECT_EQ(Object, Cached->Object)
          << Prefix << " @" << Key.KernelSymbol
          << ": re-derived object differs from the runtime's";
    }
    Out.push_back(artifactLine(
        formatString("%s jit %s spec=%s", Prefix.c_str(),
                     Key.KernelSymbol.c_str(), hashToHex(Hash).c_str()),
        IR, Object));
  }
  return Out;
}

/// One random kernel, specialized like the JIT would, through the full or
/// the Tier-0 flavor of the pipeline.
std::string randomLine(uint64_t Seed, GpuArch Arch, bool Tier0) {
  Rng R(Seed ^ 0xc0de);
  Context Ctx;
  auto M = buildRandomKernel(Ctx, Seed);
  Function *F = M->getFunction("rk");
  specializeArguments(*F, {{3, sem::boxF64(R.unit() * 3.0)},
                           {4, static_cast<uint64_t>(R.below(1000))}});
  specializeLaunchBounds(*F, RandomThreads);
  O3Options Opts;
  if (Tier0)
    Opts.Preset = O3Preset::Fast;
  runO3(*M, Opts);
  BackendOptions BO;
  BO.RegAlloc.Fast = Tier0;
  std::vector<uint8_t> Object =
      compileKernelToObject(*F, getTarget(Arch), nullptr, BO);
  return artifactLine(formatString("random seed=%llu %s %s",
                                   static_cast<unsigned long long>(Seed),
                                   gpuArchName(Arch),
                                   Tier0 ? "tier0" : "final"),
                      printModule(*M), Object);
}

std::vector<std::string> goldenLines(const std::string &Prefix) {
  std::ifstream In(PROTEUS_CODEGEN_GOLDEN);
  std::vector<std::string> Out;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#' &&
        Line.compare(0, Prefix.size(), Prefix) == 0)
      Out.push_back(Line);
  return Out;
}

void expectGolden(const std::string &Prefix,
                  const std::vector<std::string> &Got) {
  std::vector<std::string> Want = goldenLines(Prefix);
  EXPECT_FALSE(Want.empty()) << "no goldens for '" << Prefix << "' at "
                             << PROTEUS_CODEGEN_GOLDEN;
  std::ostringstream Actual;
  for (const std::string &L : Got)
    Actual << L << "\n";
  EXPECT_EQ(Got, Want) << "actual lines for " << Prefix << ":\n"
                       << Actual.str();
}

class ProgramGolden : public ::testing::TestWithParam<int> {};

TEST_P(ProgramGolden, MatchesCommittedGoldens) {
  auto All = allBenchmarks();
  const Benchmark &B = *All[static_cast<size_t>(GetParam())];
  for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim})
    expectGolden(B.name() + " " + gpuArchName(Arch) + " ",
                 programLines(B, Arch));
}

std::string programName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"ADAM",   "RSBENCH", "WSM5",
                                "FEYKAC", "LULESH",  "SW4CK"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ProgramGolden, ::testing::Range(0, 6),
                         programName);

TEST(RandomKernelGolden, MatchesCommittedGoldens) {
  std::vector<std::string> Got;
  for (uint64_t Seed = 1; Seed <= RandomSeeds; ++Seed)
    for (GpuArch Arch : {GpuArch::AmdGcnSim, GpuArch::NvPtxSim})
      for (bool Tier0 : {false, true})
        Got.push_back(randomLine(Seed, Arch, Tier0));
  expectGolden("random ", Got);
}

} // namespace
