//===- ModuleIndex.h - parse-once pruned kernel-module cache ----*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A kernel's extracted bitcode is parsed exactly once into a private,
/// immutable prototype module; every subsequent specialization materializes
/// a fresh module by cloning only the launched kernel's reachable call
/// closure (functions + referenced globals) into the caller's context,
/// instead of re-parsing the bitcode and cloning the whole module per
/// compile. The prototype (and its context) are strictly read-only after
/// construction, so materialize() may be called concurrently from any
/// number of compile workers — the cross-context translating clone in
/// ir/Cloning never touches the source IR's use lists.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_BITCODE_MODULEINDEX_H
#define PROTEUS_BITCODE_MODULEINDEX_H

#include "ir/Cloning.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace proteus {

/// Parse-once index over one extracted kernel module.
class KernelModuleIndex {
public:
  ~KernelModuleIndex();

  KernelModuleIndex(const KernelModuleIndex &) = delete;
  KernelModuleIndex &operator=(const KernelModuleIndex &) = delete;

  /// Parses \p Bitcode into a private context and precomputes each kernel's
  /// call closure. Returns nullptr and sets \p Error on malformed bitcode.
  static std::shared_ptr<const KernelModuleIndex>
  create(const std::vector<uint8_t> &Bitcode, std::string &Error);

  /// Clones \p KernelSymbol's reachable closure into a fresh module owned by
  /// \p Ctx. \p PrunedFunctions (optional) receives the number of prototype
  /// functions *not* cloned (the pruning win vs. a whole-module clone).
  /// Returns nullptr if the kernel is unknown. Thread-safe.
  std::unique_ptr<pir::Module> materialize(pir::Context &Ctx,
                                           const std::string &KernelSymbol,
                                           uint64_t *PrunedFunctions) const;

  /// The parsed prototype module, exposed for whole-module validation
  /// (JitConfig::VerifyIR runs the verifier over everything the bitcode
  /// contained, including functions a pruned materialization would drop).
  /// Callers must treat it as read-only.
  pir::Module &prototype() const { return *Proto; }

  /// Names of the device globals in \p KernelSymbol's closure, in the same
  /// deterministic source order materialize() clones them. Empty when the
  /// kernel is unknown. Thread-safe (the closures are immutable after
  /// create()). The capture subsystem uses this to record which global
  /// symbols an artifact must rebind at replay time.
  std::vector<std::string>
  closureGlobalNames(const std::string &KernelSymbol) const;

private:
  KernelModuleIndex();

  /// Private context keeps the prototype's types/constants isolated from
  /// every per-compile context (the Context constant maps are not
  /// thread-safe, so the prototype context must never be written through).
  std::unique_ptr<pir::Context> ProtoCtx;
  std::unique_ptr<pir::Module> Proto;
  /// Per-kernel reachable set, precomputed at create() time so materialize()
  /// does no graph walking (and no mutation) on the hot path.
  std::unordered_map<std::string, pir::KernelClosure> Closures;
};

} // namespace proteus

#endif // PROTEUS_BITCODE_MODULEINDEX_H
