// svale lint --ir — the second check tier, over the lowered IR instead of
// the sema'd AST. The AST linter sees what the directive semantics *mean*;
// this tier sees what the backend actually *emitted* — values flowing across
// lowered basic blocks and the host-side offload driver calls — and catches
// the bug classes a source-level walk structurally cannot.
//
// Check catalogue (see DESIGN.md "IR static analysis"):
//   uninit-use         a load from a local slot with no reaching store
//                      (Error when no initialisation reaches at all, Warning
//                      when only some paths initialise), and any `%N`
//                      operand whose unique definition does not reach the
//                      use (Error — only a broken CFG can produce it)
//   dead-store         a store to a local slot that no load observes before
//                      the slot is overwritten or the function returns
//                      (Warning; parameter spills exempt, Runtime functions
//                      skipped)
//   unreachable-block  a block the entry cannot reach that still contains
//                      source-located instructions (Warning; the lowering's
//                      synthesised continuation blocks carry no locations
//                      and stay silent)
//   device-transfer    a per-block state machine over the offload driver
//                      calls in host functions: a host→device copy repeated
//                      with no intervening kernel launch or source update
//                      (redundant), and a host read of a buffer whose
//                      device→host copy predates the last kernel launch
//                      (stale). Both Warning.
#pragma once

#include "ir/facts.hpp"
#include "lint/lint.hpp"

namespace sv::lint {

/// Run every IR-tier check over one lowered module, reading each function's
/// CFG from `facts` (only the CFG: this tier never builds dominators or
/// SSA). Diagnostics carry the instruction's source location (see the
/// lowering's location-propagation contract) and the enclosing function
/// name in `directive`.
[[nodiscard]] std::vector<Diagnostic> runIr(const ir::ModuleFacts &facts);

} // namespace sv::lint
