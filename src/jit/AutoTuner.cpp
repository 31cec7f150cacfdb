//===- AutoTuner.cpp - kernel variant manager and auto-tuning ----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "jit/AutoTuner.h"

#include "bitcode/ModuleIndex.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "support/Timer.h"

#include <algorithm>

using namespace proteus;
using namespace proteus::gpu;

std::vector<VariantSpec>
VariantManager::generateVariants(const capture::CaptureArtifact &A) const {
  std::vector<VariantSpec> Specs;
  const O3Options DefaultO3 = Jit.config().O3;

  // Bottleneck pruning: with a roofline verdict recorded for this (kernel,
  // arch), an axis the classification says cannot pay off is dropped here —
  // before the budget cap, so PROTEUS_TUNE_BUDGET bounds *raced* trials
  // and a pruned variant never consumes a budget slot that a viable one
  // could have used. Only variants that would otherwise have raced are
  // counted as pruned.
  std::optional<PolicyVerdict> Verdict;
  if (CompilationPolicy *P = Jit.policy())
    Verdict = P->verdictFor(A.KernelSymbol, A.Arch);
  uint64_t Pruned = 0;
  auto Race = [&](VariantAxis Axis) {
    if (!Verdict || CompilationPolicy::axisWorthRacing(Verdict->Class, Axis))
      return true;
    ++Pruned;
    return false;
  };

  // Variant 0: the recorded configuration under the runtime's own pipeline
  // — the status quo always races, so the winner can never be slower than
  // what the program would have run anyway.
  VariantSpec Default;
  Default.Name = "default";
  Default.Grid = A.Grid;
  Default.Block = A.Block;
  Default.O3 = DefaultO3;
  Specs.push_back(Default);

  // Launch-geometry variants: reshape the same total work into 1-D grids
  // of each candidate block size (each implies its own launch-bounds
  // specialization, hence its own register budget in the backend).
  const uint64_t Total = A.Grid.count() * A.Block.count();
  for (uint32_t Block : BlockCandidates) {
    uint64_t Blocks = (Total + Block - 1) / Block;
    if (Blocks == 0 || Blocks > (1ull << 31))
      continue;
    if (Blocks == A.Grid.X && A.Grid.Y == 1 && A.Grid.Z == 1 &&
        Block == A.Block.X && A.Block.Y == 1 && A.Block.Z == 1)
      continue; // identical to the recorded default
    if (!Race(VariantAxis::BlockSize))
      continue;
    VariantSpec V;
    V.Name = "block" + std::to_string(Block);
    V.Grid = Dim3{static_cast<uint32_t>(Blocks), 1, 1};
    V.Block = Dim3{Block, 1, 1};
    V.O3 = DefaultO3;
    Specs.push_back(V);
  }

  // Pipeline variants at the recorded geometry: compile-pipeline
  // aggressiveness is a launch-performance axis of its own (unrolling
  // trades instruction count for register pressure, LICM hoisting
  // lengthens live ranges, the fast preset skips both).
  if (DefaultO3.Preset != O3Preset::Fast &&
      Race(VariantAxis::PipelinePreset)) {
    VariantSpec V = Default;
    V.Name = "o3-fast";
    V.O3.Preset = O3Preset::Fast;
    Specs.push_back(V);
  }
  if (DefaultO3.EnableLICM && Race(VariantAxis::Licm)) {
    VariantSpec V = Default;
    V.Name = "no-licm";
    V.O3.EnableLICM = false;
    Specs.push_back(V);
  }
  if (Race(VariantAxis::Unroll)) {
    VariantSpec V = Default;
    V.Name = "unroll-wide";
    V.O3.Unroll.MaxTripCount = DefaultO3.Unroll.MaxTripCount * 4;
    V.O3.Unroll.MaxExpandedInstructions =
        DefaultO3.Unroll.MaxExpandedInstructions * 4;
    Specs.push_back(V);
  }

  if (Pruned)
    Jit.notePolicyPrunedTrials(Pruned);

  // Budget cap (PROTEUS_TUNE_BUDGET); the default variant always stays.
  const size_t Budget = std::max(Jit.config().TuneBudget, 1u);
  if (Specs.size() > Budget)
    Specs.resize(Budget);
  return Specs;
}

std::optional<PolicyVerdict>
VariantManager::ensureVerdict(const capture::CaptureArtifact &A) {
  CompilationPolicy *P = Jit.policy();
  if (!P)
    return std::nullopt;
  if (std::optional<PolicyVerdict> V = P->verdictFor(A.KernelSymbol, A.Arch))
    return V;
  if (A.Bitcode.empty())
    return std::nullopt;
  // The runtime has not compiled (hence not classified) this kernel —
  // classify the artifact's own pruned bitcode. No register-allocation
  // feedback exists on this path, so a spill-bound kernel conservatively
  // classifies by its roofline position instead (no pruning is lost: the
  // reg-pressure class prunes strictly less than MemoryBound).
  std::string Error;
  std::shared_ptr<const KernelModuleIndex> Index =
      KernelModuleIndex::create(A.Bitcode, Error);
  if (!Index)
    return std::nullopt;
  pir::Context Ctx;
  std::unique_ptr<pir::Module> M =
      Index->materialize(Ctx, A.KernelSymbol, nullptr);
  if (!M)
    return std::nullopt;
  pir::Function *F = M->getFunction(A.KernelSymbol);
  if (!F)
    return std::nullopt;
  pir::analysis::RooflineReport RR = pir::analysis::classifyKernel(
      *F, getTarget(A.Arch), nullptr, A.Grid.count() * A.Block.count());
  PolicyVerdict V;
  V.Class = RR.Class;
  V.ArithmeticIntensity = RR.ArithmeticIntensity;
  V.RidgeFlopsPerByte = RR.Model.ridgeFlopsPerByte();
  P->recordVerdict(A.KernelSymbol, A.Arch, V);
  Jit.notePolicyClassified();
  return V;
}

VariantTuningResult
VariantManager::tuneArtifact(const capture::CaptureArtifact &A) {
  VariantTuningResult R;
  if (A.KernelSymbol.empty() || A.Bitcode.empty()) {
    Jit.noteTunerError();
    R.Error = "artifact carries no kernel bitcode";
    return R;
  }
  Timer Wall;
  const uint64_t Total = A.Grid.count() * A.Block.count();
  R.DecisionKey = computeTuningKeyHash(A.ModuleId, A.KernelSymbol, A.Arch,
                                       Total, A.ArgBits);

  std::vector<KernelArg> Args;
  Args.reserve(A.ArgBits.size());
  for (uint64_t Bits : A.ArgBits)
    Args.push_back(KernelArg{Bits});

  // Warm path: a persisted decision means a previous run already raced
  // this (kernel, args, arch, shape). Install its winner — out of the
  // persistent code cache when warm, so nothing compiles — and race
  // nothing (TunerCacheHits counts the skip).
  if (std::optional<TuningDecision> D =
          Jit.lookupTuningDecision(R.DecisionKey)) {
    R.FromCache = true;
    R.Winner.Name = "cached";
    R.Winner.Grid = Dim3{D->GridX, D->GridY, D->GridZ};
    R.Winner.Block = Dim3{D->BlockX, D->BlockY, D->BlockZ};
    R.Winner.O3 = Jit.config().O3;
    R.Winner.O3.Preset = D->Preset ? O3Preset::Fast : O3Preset::Full;
    R.Winner.O3.EnableLICM = D->EnableLICM != 0;
    R.Winner.O3.Unroll.MaxTripCount = D->UnrollMaxTripCount;
    R.Winner.O3.Unroll.MaxExpandedInstructions =
        D->UnrollMaxExpandedInstructions;
    R.WinnerSeconds = D->ExpectedSeconds;
    std::string Err;
    if (Jit.installFinalTier(A.KernelSymbol, R.Winner.Block, Args,
                             &R.Winner.O3, /*DeviceIndex=*/-1,
                             /*ReuseCached=*/true,
                             &Err) != GpuError::Success) {
      R.Error = "cached winner install failed: " + Err;
      R.TuningWallSeconds = Wall.seconds();
      return R;
    }
    R.Promoted = true;
    R.Ok = true;
    R.TuningWallSeconds = Wall.seconds();
    return R;
  }

  // Cold path: race the variants on the replay substrate. Every trial
  // rebuilds a throwaway device from the artifact's pre-launch images, so
  // trials are side-effect-free by construction; the output check against
  // the recorded post-images gates eligibility. Trials share one base
  // configuration that forces fairness and isolation: synchronous
  // final-tier compiles only (no Tier-0 head start), no capture of the
  // trials themselves, and a memory-only code cache so variant objects
  // never pollute the persistent cache — only the promoted winner does.
  ReplayOptions Base;
  Base.Jit = Jit.config();
  Base.Jit.Tier = false;
  Base.Jit.Async = JitConfig::AsyncMode::Sync;
  Base.Jit.Capture = false;
  Base.Jit.UseMemoryCache = true;
  Base.Jit.UsePersistentCache = false;
  Base.Jit.CacheDir.clear();
  Base.CacheDir.clear();
  Base.OverrideGeometry = true;

  // Make sure a roofline verdict exists before the variants are generated:
  // when the runtime never compiled this kernel itself, the artifact's own
  // bitcode is classified here, so the pruning table below has something
  // to consult.
  std::optional<PolicyVerdict> Verdict = ensureVerdict(A);

  std::vector<VariantSpec> Specs = generateVariants(A);
  for (const VariantSpec &S : Specs) {
    ReplayOptions RO = Base;
    RO.Grid = S.Grid;
    RO.Block = S.Block;
    RO.Jit.O3 = S.O3;
    ReplayResult RR = replayArtifact(A, RO);
    Jit.noteTunerTrials(1);
    VariantTrial T;
    T.Spec = S;
    T.Ok = RR.Ok;
    T.OutputMatch = RR.OutputMatch;
    T.KernelSeconds = RR.KernelSeconds;
    T.Compilations = RR.CompilationsUsed;
    T.Stats = RR.Launch;
    T.Error = RR.Error;
    R.TuningSeconds += RR.SimulatedSeconds;
    R.Trials.push_back(std::move(T));
  }

  if (!R.Trials.empty() && R.Trials.front().Ok &&
      R.Trials.front().OutputMatch)
    R.BaselineSeconds = R.Trials.front().KernelSeconds;

  // The winner: fastest correct trial; the earliest wins ties, which
  // keeps the recorded default ahead of exotic variants that merely match
  // it.
  const VariantTrial *Best = nullptr;
  for (const VariantTrial &T : R.Trials)
    if (T.Ok && T.OutputMatch &&
        (!Best || T.KernelSeconds < Best->KernelSeconds))
      Best = &T;
  if (!Best) {
    Jit.noteTunerError();
    R.Error = "no variant produced a correct replay";
    R.TuningWallSeconds = Wall.seconds();
    return R;
  }
  R.Winner = Best->Spec;
  R.WinnerSeconds = Best->KernelSeconds;

  // Promote the winner through the Tier-1 hot-swap path on every attached
  // device, compiled fresh under the winning pipeline knobs (this is also
  // what lands it in the persistent code cache for the warm path).
  std::string Err;
  if (Jit.installFinalTier(A.KernelSymbol, R.Winner.Block, Args,
                           &R.Winner.O3, /*DeviceIndex=*/-1,
                           /*ReuseCached=*/false,
                           &Err) != GpuError::Success) {
    R.Error = "winner promotion failed: " + Err;
    R.TuningWallSeconds = Wall.seconds();
    return R;
  }
  R.Promoted = true;

  TuningDecision D;
  D.GridX = R.Winner.Grid.X;
  D.GridY = R.Winner.Grid.Y;
  D.GridZ = R.Winner.Grid.Z;
  D.BlockX = R.Winner.Block.X;
  D.BlockY = R.Winner.Block.Y;
  D.BlockZ = R.Winner.Block.Z;
  D.Preset = R.Winner.O3.Preset == O3Preset::Fast ? 1 : 0;
  D.EnableLICM = R.Winner.O3.EnableLICM ? 1 : 0;
  D.UnrollMaxTripCount = R.Winner.O3.Unroll.MaxTripCount;
  D.UnrollMaxExpandedInstructions =
      R.Winner.O3.Unroll.MaxExpandedInstructions;
  D.ExpectedSeconds = R.WinnerSeconds;
  D.TrialsRun = static_cast<uint32_t>(R.Trials.size());
  // Persist the roofline verdict with the decision (class + 1; 0 stays
  // "unclassified"), so a warm fleet can see *why* a shape raced few
  // variants without re-running the classifier.
  if (Verdict)
    D.Bottleneck = static_cast<uint8_t>(Verdict->Class) + 1;
  Jit.storeTuningDecision(R.DecisionKey, D);

  R.Ok = true;
  R.TuningWallSeconds = Wall.seconds();
  return R;
}
