// Interprocedural value-range analysis over the SSA overlay (ir/ssa.hpp) —
// the fourth static-analysis tier's engine and the precision feed for the
// dependence tests in ir/deps.cpp.
//
// Per SSA value the analysis computes an interval [lo, hi] in the classic
// abstract-interpretation style:
//
//   lattice      i64 intervals with ±∞ sentinels; ⊥ for "no value". All
//                arithmetic saturates, so overflowing expressions widen to
//                the affected bound instead of wrapping.
//   widening     phi nodes (loop-header merges after SSA construction) are
//                joined monotonically; once a phi has grown for three
//                fixpoint rounds, the moving bound is widened to ∞ so the
//                iteration terminates on any nest.
//   narrowing    two decreasing rounds re-evaluate every phi exactly; the
//                branch-condition refinement below pulls widened bounds
//                back to the loop's real limits (e.g. `i < n` gives
//                i ∈ [0, hi(n) - 1] even after i widened to [0, ∞]).
//   refinement   a block dominated by a conditional edge refines the
//                values the branch compares: the refinement context of a
//                block is accumulated along its idom chain over
//                single-predecessor hops, so loop bodies and then/else
//                arms see their governing conditions.
//   summaries    bottom-up over the call graph (ir/callgraph.hpp):
//                return-value ranges propagate callee -> caller, argument
//                ranges are joined over every module-internal call site
//                caller -> callee (the VM — the fuzz soundness oracle —
//                can only reach a function through those sites). Members
//                of recursive SCCs and functions whose symbol escapes as a
//                call operand widen to ⊤, mirroring the mod/ref design.
//
// Nothing here mutates the module; like the SSA overlay, the result is a
// side table queried by line/block. Each function's CFG, dominators and SSA
// come from ir::ModuleFacts (ir/facts.hpp), built once however many
// interprocedural rounds rerun the fixpoint, and the results point into
// those facts: they must not outlive them.
//
// Consumers: deps.cpp (induction bounds for Banerjee / weak-zero SIV and
// trip counts), lint/rangelint.cpp (OOB / div-by-zero / dead-branch
// checks), the fuzz `range` oracle (VM observed values must lie inside
// these intervals).
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ir/facts.hpp"

namespace sv::ir {

/// An integer interval with ±∞ sentinels. The default-constructed value is
/// ⊤ ([−∞, +∞]); `none()` is ⊥ (no value, e.g. an unreachable operand).
struct Interval {
  static constexpr i64 kMin = std::numeric_limits<i64>::min();
  static constexpr i64 kMax = std::numeric_limits<i64>::max();

  i64 lo = kMin;
  i64 hi = kMax;
  bool bot = false;

  [[nodiscard]] static Interval top() { return {}; }
  [[nodiscard]] static Interval none() { return {0, 0, true}; }
  [[nodiscard]] static Interval of(i64 v) { return {v, v, false}; }
  [[nodiscard]] static Interval of(i64 lo, i64 hi) {
    return lo > hi ? none() : Interval{lo, hi, false};
  }

  [[nodiscard]] bool isTop() const { return !bot && lo == kMin && hi == kMax; }
  [[nodiscard]] bool isConst() const { return !bot && lo == hi; }
  [[nodiscard]] bool hasLo() const { return !bot && lo != kMin; }
  [[nodiscard]] bool hasHi() const { return !bot && hi != kMax; }
  [[nodiscard]] bool bounded() const { return hasLo() && hasHi(); }
  [[nodiscard]] bool contains(i64 v) const { return !bot && lo <= v && v <= hi; }
  /// Every value of this interval lies inside `outer`.
  [[nodiscard]] bool inside(const Interval &outer) const {
    if (bot) return true;
    return !outer.bot && outer.lo <= lo && hi <= outer.hi;
  }

  [[nodiscard]] Interval join(const Interval &o) const;
  [[nodiscard]] Interval meet(const Interval &o) const;
  /// Standard widening: a bound that grew versus `prev` jumps to ∞.
  [[nodiscard]] Interval widen(const Interval &prev) const;

  [[nodiscard]] Interval add(const Interval &o) const;
  [[nodiscard]] Interval sub(const Interval &o) const;
  [[nodiscard]] Interval mul(const Interval &o) const;
  [[nodiscard]] Interval sdiv(const Interval &o) const;
  [[nodiscard]] Interval srem(const Interval &o) const;
  [[nodiscard]] Interval neg() const;

  /// "[lo, hi]" with "-inf"/"inf" for the sentinels; "none" for ⊥.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] bool operator==(const Interval &) const = default;
};

/// Value ranges for one function, queryable by operand and block. The
/// block parameter selects the refinement context (which governing branch
/// conditions apply); pass the block the consuming instruction lives in.
/// The ranges are keyed by the SSA overlay of the facts they were computed
/// over and point into them: they must not outlive those facts.
struct FunctionRanges {
  const FunctionFacts *facts = nullptr; ///< the CFG/dominators/SSA analysed

  std::map<std::string, Interval> temps; ///< "%N" instruction results
  std::vector<Interval> defRanges;       ///< per SSA def id (unrefined)
  Interval returnRange = Interval::none(); ///< join of ret operands; ⊥ = void
  usize rounds = 0; ///< fixpoint rounds until convergence (tests pin this)

  /// Interval of any operand ("const:<v>", "arg:<i>", "%N") as seen from
  /// `block`, with the block's refinement context applied.
  [[nodiscard]] Interval valueAt(const std::string &operand, u32 block) const;
  /// Interval of a promoted slot's value on entry to `block`, refined.
  [[nodiscard]] Interval slotAt(const std::string &slot, u32 block) const;

  /// The argument ranges this analysis ran under (⊤ when standalone).
  std::vector<Interval> argRanges;

private:
  friend struct RangeAnalyzer;
  /// Refinement context of a block: SSA def id -> narrowed interval and
  /// temp name -> narrowed interval, from dominating conditional edges.
  std::map<u32, std::map<u32, Interval>> refineDef_;
  std::map<u32, std::map<std::string, Interval>> refineTemp_;
  std::map<std::string, Interval> symbols_; ///< "@name" call/global ranges
};

/// Whole-module analysis: function ranges under interprocedurally derived
/// argument ranges, plus the summaries themselves. Points into the
/// ir::ModuleFacts it was computed over.
struct ModuleRanges {
  std::map<std::string, FunctionRanges> functions; ///< by function name
  std::map<std::string, std::vector<Interval>> argRanges;
  std::map<std::string, Interval> returnRanges; ///< by "@name"

  [[nodiscard]] const FunctionRanges *rangesOf(const std::string &name) const {
    const auto it = functions.find(name);
    return it == functions.end() ? nullptr : &it->second;
  }
};

/// Analyze one function under the given argument ranges (missing entries
/// are ⊤). `symbols`, when provided, supplies call-result and global
/// scalar intervals keyed by "@name". The result points into `facts`, so
/// temporary facts are rejected at compile time.
[[nodiscard]] FunctionRanges
analyzeRanges(const FunctionFacts &facts, std::vector<Interval> argRanges = {},
              const std::map<std::string, Interval> *symbols = nullptr);
FunctionRanges analyzeRanges(FunctionFacts &&, std::vector<Interval> = {},
                             const std::map<std::string, Interval> * = nullptr) = delete;

/// Interprocedural driver: bounded caller/callee rounds over the module's
/// call graph. Recursive SCC members and functions whose symbol is passed
/// as a call argument (outlined bodies behind fork_call, function
/// pointers) keep ⊤ argument ranges. Every round reuses the facts' CFG,
/// dominators and SSA; only the interval fixpoint reruns. The result
/// points into `facts`, so `analyzeModuleRanges(module)` does not compile.
[[nodiscard]] ModuleRanges analyzeModuleRanges(const ModuleFacts &facts);
ModuleRanges analyzeModuleRanges(ModuleFacts &&) = delete;

/// Element count of a stack array: the alloca defining `root` with
/// compile-time constant size operands (their product). nullopt for
/// scalars, pointer args, globals, and dynamic sizes.
[[nodiscard]] std::optional<i64> arrayLength(const Function &fn,
                                             const std::string &root);

} // namespace sv::ir
