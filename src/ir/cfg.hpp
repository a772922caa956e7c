// Control-flow graph over ir::Function (the T_ir layer's analysable view).
// Successor/predecessor edges are derived from the terminators' `label:`
// operands; a block with no terminator falls through to the next block in
// layout order, exactly as ir::lower emits them. The graph normalises the
// entry (block 0) and the exits (every block ending in `ret`, plus a final
// fall-off-the-end block) so forward and backward dataflow have well-defined
// boundaries, and records which blocks are unreachable from the entry.
//
// Analyses do not call buildCfg themselves: they read a function's CFG from
// ir::FunctionFacts (ir/facts.hpp), which builds it once and lends it to
// every tier of a request.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace sv::ir {

/// True for instructions that end a basic block: "br", "condbr", "ret".
[[nodiscard]] bool isTerminator(const Instr &in);

struct Cfg {
  const Function *function = nullptr;
  std::vector<std::vector<u32>> succs; ///< per-block successor indices
  std::vector<std::vector<u32>> preds; ///< per-block predecessor indices
  std::vector<bool> reachable;         ///< from the entry block (index 0)
  std::vector<u32> rpo;                ///< reverse post-order; unreachable blocks appended last
  std::vector<u32> exits;              ///< blocks ending in ret / falling off the end
  /// Index of the block's terminating instruction, or npos when the block
  /// falls through. Instructions after the first terminator are dead and
  /// contribute no edges.
  std::vector<usize> terminator;

  static constexpr usize npos = static_cast<usize>(-1);

  [[nodiscard]] usize size() const { return succs.size(); }
  /// Block index by name (the `label:` operand payload), if it exists.
  [[nodiscard]] std::optional<u32> blockOf(const std::string &name) const;
};

/// Build the CFG of one function. Unresolvable `label:` operands contribute
/// no edge (ir::verify reports them as well-formedness errors).
[[nodiscard]] Cfg buildCfg(const Function &fn);

/// Indices of blocks not reachable from the entry, in layout order.
[[nodiscard]] std::vector<u32> unreachableBlocks(const Cfg &cfg);

} // namespace sv::ir
