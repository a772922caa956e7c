// svale lint --range — the fourth check tier, fed by the interprocedural
// value-range analysis (ir/range.hpp) over the SSA overlay. Where the IR
// tier reasons about *reachability* of values and the dependence tier about
// *iterations*, this tier reasons about the values themselves: every
// integer SSA value carries an interval, and the checks compare those
// intervals against the hard limits the program text implies.
//
// Check catalogue (see DESIGN.md "Value-range analysis"):
//   out-of-bounds     a stack-array subscript whose interval is provably
//                     disjoint from [0, len-1] (Error), or whose interval
//                     has a *bounded* bound outside it (Warning — an
//                     unbounded side stays silent: ⊤ subscripts are the
//                     analysis giving up, not the program misbehaving)
//   division-by-zero  an sdiv/srem whose divisor interval is exactly
//                     [0, 0] (Error)
//   dead-branch       a conditional branch whose condition interval is
//                     [0, 0] outside any loop header — the true arm can
//                     never execute (Warning)
//   zero-trip-loop    a loop-header condition proven [0, 0]: the loop body
//                     never runs (Note — dead setup code is suspicious but
//                     often deliberate in ported benchmarks)
#pragma once

#include "ir/range.hpp"
#include "lint/lint.hpp"

namespace sv::lint {

/// Run the value-range checks over one lowered module. `ranges`, when
/// given, is the interprocedural range analysis already computed over
/// `facts` (svale range reports its summaries and feeds it here); without
/// it the analysis runs inside (bounded rounds over the call graph). The
/// diagnostics carry the instruction's source location and the enclosing
/// function name in `directive`.
[[nodiscard]] std::vector<Diagnostic> runRange(const ir::ModuleFacts &facts,
                                               const ir::ModuleRanges *ranges = nullptr);

} // namespace sv::lint
