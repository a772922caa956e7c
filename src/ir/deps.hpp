// Loop dependence analysis — the third static-analysis tier, over the
// lowered IR's CFG (tier one checks directive semantics on the AST, tier
// two runs bit-vector dataflow per function; this tier reasons about
// *iterations*). It recovers natural loop nests from dominator-based back
// edges, recognises affine induction variables from the lowering's
// slot-load / icmp / add / store idiom, and runs the classic subscript
// dependence tests on every same-array access pair:
//
//   ZIV          both subscripts loop-invariant: equal -> loop-independent
//                dependence, unequal -> independent
//   strong SIV   equal induction coefficients: exact integer distance (or
//                proven independence on non-divisibility / trip overflow)
//   weak-zero SIV  one side invariant: single colliding iteration, proven
//                only when constant bounds place it inside the loop
//   GCD          coupled/MIV subscripts: gcd of coefficients must divide
//                the constant difference, else independent
//   Banerjee     constant-bound range check as the last word before
//                "assumed dependent"
//
// Scalars written inside a loop are classified as induction / privatizable
// (every read preceded by a same-iteration write) / reduction (`x op= e`
// update chains, including min/max-call forms) / loop-carried (upward-
// exposed read). Call sites consult the bottom-up mod/ref summaries from
// ir/callgraph.hpp, so loops that call summarised helpers stay analyzable
// instead of degrading to "unknown" at every call.
//
// The CFGs, dominator trees and call graph come from ir::ModuleFacts
// (ir/facts.hpp): run next to the IR and range tiers on one facts object,
// this tier rebuilds none of them.
//
// Every conclusion is three-valued: *proven* dependences (the race
// ammunition), proven independence, and "assumed" dependences where a test
// was inconclusive — assumed edges block a provably-parallel verdict but
// never justify a race diagnostic. See DESIGN.md "Dependence analysis" for
// the soundness caveats.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/range.hpp"

namespace sv::ir {

enum class DepKind : u8 { Flow, Anti, Output };
enum class DepDirection : u8 { Lt, Eq, Gt, Any };

[[nodiscard]] const char *name(DepKind k);
[[nodiscard]] const char *name(DepDirection d);

struct ArrayDependence {
  std::string array;   ///< root id: "@a", "arg:0", or a local slot "%N"
  DepKind kind{};
  bool carried = false;  ///< crosses iterations of the reported loop
  bool proven = false;   ///< test concluded; false = assumed (inconclusive)
  std::optional<i64> distance; ///< iterations, when an exact test found one
  DepDirection direction = DepDirection::Any;
  i32 line = -1;
};

enum class ScalarClass : u8 {
  Induction,     ///< a recognised loop counter (its own or an inner loop's)
  Privatizable,  ///< written before any read on every in-iteration path
  Reduction,     ///< all updates are `x op= e` chains with a single op
  Carried,       ///< upward-exposed read of a value written in the loop
  WriteOnly,     ///< stored every iteration, never read inside the loop
  Unknown,       ///< touched by a call or otherwise unanalyzable
};

[[nodiscard]] const char *name(ScalarClass c);

struct ScalarUse {
  std::string slot;     ///< root id of the scalar's storage
  std::string display;  ///< source-ish name ("s" for "@s", else the slot id)
  ScalarClass cls{};
  std::string op;       ///< reduction operator: "+", "*", "min", "max"
  bool shared = false;  ///< rooted at a global (shared in outlined regions)
  bool declaredInLoop = false; ///< alloca'd inside the loop body (iteration-local)
  i32 line = -1;
};

struct LoopInfo {
  u32 header = 0;
  std::vector<u32> blocks;  ///< natural-loop body block indices, sorted
  u32 depth = 0;            ///< 0 = outermost in this function
  i32 line = -1;            ///< source line of the loop condition
  i32 file = -1;            ///< source file id of the loop condition

  std::string inductionSlot;  ///< root id, empty when not recognised
  std::string inductionName;  ///< display name for reports
  bool affine = false;        ///< induction with a constant step
  i64 step = 0;
  std::optional<i64> lowerBound;  ///< initial induction value when constant
  std::optional<i64> tripCount;   ///< iteration count when bounds constant

  /// Induction-value bounds the subscript tests consult. With constant
  /// bounds these restate lowerBound/tripCount exactly (`ivExact`); with
  /// the value-range analysis (ir/range.hpp) they are a sound
  /// over-approximation of the induction's reachable values — good for
  /// proving *independence* (Banerjee, weak-zero SIV, strong-SIV trip
  /// overflow) but never for upgrading an in-range collision to a proven
  /// dependence.
  std::optional<i64> ivMin, ivMax;
  bool ivExact = false;

  bool analyzable = false;       ///< every access affine, every call summarised
  bool provablyParallel = false; ///< no carried dependence, scalars all benign
  std::vector<ArrayDependence> deps;
  std::vector<ScalarUse> scalars;

  [[nodiscard]] bool contains(u32 block) const;
};

struct FunctionDeps {
  std::string function;
  FunctionRole role{};
  std::vector<LoopInfo> loops; ///< outer-first (by header block index)
};

/// Per-loop facts of every non-Runtime function that has loops. Plain
/// values: nothing points into the ir::ModuleFacts they came from.
struct ModuleDeps {
  std::vector<FunctionDeps> functions;
};

/// Loop recovery alone: the facts' back edges (FunctionFacts::isBackEdge)
/// name the headers. Irreducible cycles (no dominating header) produce no
/// loops; multi-exit (`break`-heavy) bodies are recovered intact.
/// Structural fields plus induction recognition are filled; dependence
/// fields are left empty.
[[nodiscard]] std::vector<LoopInfo> findLoops(const FunctionFacts &facts);

/// Analyze every non-Runtime function against the facts' call graph. With
/// `ranges` (computed over the same facts) each function is analyzed under
/// its interprocedural slice: loop-invariant scalars whose range is a
/// compile-time singleton fold to constants in the affine subscript view
/// (making linearised `i*ny + j` subscripts testable), and loops without
/// constant bounds get range-derived induction bounds for the independence
/// tests. Without (the default) the tests see only compile-time constant
/// bounds.
[[nodiscard]] ModuleDeps analyzeModule(const ModuleFacts &facts,
                                       const ModuleRanges *ranges = nullptr);

} // namespace sv::ir
