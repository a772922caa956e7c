// svale lint --deps — the dependence-aware lint tier. It runs the loop
// dependence engine (ir/deps.hpp) over a lowered module and turns per-loop
// facts into verdicts:
//
//   loop-carried-race     (error)   a parallel region's loop has a *proven*
//                                   cross-iteration dependence — an array
//                                   distance-vector the subscript tests
//                                   established, or an upward-exposed read
//                                   of a shared scalar written in the loop.
//                                   Assumed (inconclusive) dependences never
//                                   fire this.
//   missed-reduction      (warning) a shared scalar updated only through
//                                   `x op= e` chains with no reduction
//                                   clause covering it
//   missed-privatization  (warning) a shared scalar the engine proves is
//                                   written before every read, with no
//                                   private-family clause covering it
//   provably-parallel     (note)    a serial (non-outlined) loop with no
//                                   carried dependence and only benign
//                                   scalars — the directive-synthesis seed
//
// Clause suppression: when the originating translation unit is available,
// symbols named by any private-family or reduction clause in the unit are
// exempt from the race and missed-* verdicts (the lowering erases private
// clauses, so the AST is the only witness). Without a unit, `__kmpc_reduce`
// markers in the IR stand in for reduction clauses.
#pragma once

#include "ir/deps.hpp"
#include "lint/lint.hpp"

namespace sv::lint {

struct DepsOptions {
  /// The unit the module was lowered from, for clause suppression.
  const lang::ast::TranslationUnit *unit = nullptr;
};

/// Run the dependence engine over `facts` (CFG, dominators and call graph;
/// no value ranges, so verdicts rest on compile-time constant bounds) and
/// turn its per-loop facts into the verdicts above.
[[nodiscard]] std::vector<Diagnostic> runDeps(const ir::ModuleFacts &facts,
                                              const DepsOptions &options = {});

/// AST-level dependence classification of one Fortran whole-array
/// assignment `a(...) = expr` (StmtKind::ArrayAssign), used by the tier-one
/// checker in place of its old blanket `acc kernels` exemption:
///   Independent  rhs never reads the assigned array, or reads it only
///                through the identical unshifted section — elementwise
///                parallelization is safe
///   Carried      rhs reads an overlapping *shifted* section or a fixed
///                element of the assigned array — naive parallelization
///                races with the writes
///   Unknown      rhs references the array in a form the classifier cannot
///                bound (computed subscripts, calls taking the array)
enum class AssignDep : u8 { Independent, Carried, Unknown };

[[nodiscard]] AssignDep classifyArrayAssign(const lang::ast::Stmt &s);

} // namespace sv::lint
