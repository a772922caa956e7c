// The IR facts of one lowered module — the one place the IR, dependence
// and range tiers get a function's CFG, dominator tree and SSA overlay, and
// the module's call graph, from. This is the analysis-manager pattern of
// compiler frameworks: every derived structure is built on first use and
// then borrowed by every consumer, so a request that runs all three tiers
// builds each fact once per function (the call graph once per module)
// instead of once per tier.
//
// Lifetime: the facts borrow the module (and each FunctionFacts its
// function) and must not outlive it. Results that point into the facts
// (ir::FunctionRanges, ir::ModuleRanges) must not outlive the facts.
//
// Threading: the lazy caches are unsynchronised. One facts object belongs
// to one task (the per-unit task of lintCodebase, depsCodebase and
// rangeCodebase) and is never shared across threads.
#pragma once

#include <optional>
#include <vector>

#include "ir/callgraph.hpp"
#include "ir/ssa.hpp"

namespace sv::ir {

/// CFG, dominators and SSA overlay of one function, each built on first use.
class FunctionFacts {
public:
  explicit FunctionFacts(const Function &fn) : fn_(&fn) {}

  [[nodiscard]] const Function &function() const { return *fn_; }
  [[nodiscard]] const Cfg &cfg() const;
  [[nodiscard]] const Dominators &dominators() const;
  [[nodiscard]] const SsaFunction &ssa() const;

  /// The back-edge criterion every loop consumer uses: `from` is reachable
  /// and `to` dominates it. Irreducible cycles have no such edge.
  [[nodiscard]] bool isBackEdge(u32 from, u32 to) const {
    return cfg().reachable[from] && dominators().dominates(to, from);
  }

private:
  const Function *fn_;
  mutable std::optional<Cfg> cfg_;
  mutable std::optional<Dominators> doms_;
  mutable std::optional<SsaFunction> ssa_;
};

/// Facts for a whole module: one FunctionFacts per function (parallel to
/// `module().functions`) and the call graph, built on first use.
class ModuleFacts {
public:
  /// Implicit so every tier entry point also accepts a bare module, which
  /// then gets facts of its own for the duration of the call.
  ModuleFacts(const Module &m); // NOLINT(google-explicit-constructor)
  ModuleFacts(const ModuleFacts &) = delete;
  ModuleFacts &operator=(const ModuleFacts &) = delete;

  [[nodiscard]] const Module &module() const { return *module_; }
  [[nodiscard]] const std::vector<FunctionFacts> &functions() const {
    return functions_;
  }
  [[nodiscard]] const CallGraph &callGraph() const;

private:
  const Module *module_;
  std::vector<FunctionFacts> functions_;
  mutable std::optional<CallGraph> callGraph_;
};

} // namespace sv::ir
