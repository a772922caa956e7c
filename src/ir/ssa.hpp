// SSA construction over the lowered IR — the value-naming layer the range
// analysis (ir/range.hpp) interprets. The lowering keeps every scalar in a
// memory slot (alloca + load/store), which is convenient for the dataflow
// tier but hides def-use chains: a load's value depends on which store
// reaches it. This pass promotes the non-escaping slots (ir/dataflow.hpp's
// `trackedSlots`) to SSA form the classic way — iterated dominance-frontier
// phi placement, then a dominator-tree renaming walk — WITHOUT rewriting
// the module: the result is an overlay mapping every load to the unique
// SSA definition it observes. `ir::print` output is untouched by
// construction, which the round-trip test pins.
//
// The dominator machinery (bit-vector dominator sets, immediate dominators,
// dominance frontiers) lives here too. Analyses do not call these builders:
// ir::FunctionFacts (ir/facts.hpp) builds a function's dominators and
// overlay once, and the range fixpoint, the dependence tier's loop recovery
// and the range tier's loop-header test all borrow them.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/cfg.hpp"

namespace sv::ir {

/// Dominator information for one CFG. `dom[b][d]` is true when block d
/// dominates block b (every block dominates itself). Unreachable blocks
/// keep the all-false row the iteration converges to; their idom is npos.
struct Dominators {
  static constexpr u32 npos = static_cast<u32>(-1);

  std::vector<std::vector<bool>> dom;    ///< dom[b][d]: d dominates b
  std::vector<u32> idom;                 ///< immediate dominator; entry -> npos
  std::vector<std::vector<u32>> frontier; ///< dominance frontier DF[b], sorted

  [[nodiscard]] bool dominates(u32 d, u32 b) const { return dom[b][d]; }
};

/// Iterative bit-vector dominators over the reverse post-order, plus
/// immediate dominators and the Cooper–Harvey–Kennedy dominance frontier.
[[nodiscard]] Dominators computeDominators(const Cfg &cfg);

/// One SSA definition of a promoted slot: a concrete store, a phi merging
/// the reaching definitions at a join block, or the per-slot
/// "uninitialised" pseudo definition rooted at the entry block (so every
/// phi is total over its reachable predecessors even when the slot's
/// alloca sits mid-CFG).
struct SsaDef {
  enum class Kind : u8 { Store, Phi, Uninit };

  Kind kind{};
  std::string slot;    ///< promoted alloca root ("%N")
  u32 block = 0;       ///< defining block
  i32 line = -1;
  /// Store: the stored operand ("const:3", "%7", "arg:0", ...).
  std::string stored;
  /// Phi: (predecessor block, incoming def id) per CFG edge into `block`,
  /// in predecessor order.
  std::vector<std::pair<u32, u32>> incoming;
};

/// SSA overlay for one function: no instruction is modified; instead every
/// load of a promoted slot is mapped to the def id it observes, and every
/// block records which def of each slot reaches its entry.
struct SsaFunction {
  const Function *function = nullptr;
  std::set<std::string> promoted;  ///< slots in SSA form (from trackedSlots)
  std::vector<SsaDef> defs;        ///< def id -> definition

  /// load instruction -> def id of the value it reads. Keyed by the load's
  /// result id ("%N"), which ir::lower guarantees is unique per function.
  std::map<std::string, u32> loadDef;
  /// (block, slot) -> def id reaching the block's entry.
  std::map<std::pair<u32, std::string>, u32> entryDef;
  /// store instruction -> the def id it creates (promoted slots only).
  std::map<const Instr *, u32> storeDef;

  [[nodiscard]] const SsaDef *defOfLoad(const std::string &loadResult) const {
    const auto it = loadDef.find(loadResult);
    return it == loadDef.end() ? nullptr : &defs[it->second];
  }
  [[nodiscard]] usize phiCount() const {
    usize n = 0;
    for (const auto &d : defs)
      if (d.kind == SsaDef::Kind::Phi) ++n;
    return n;
  }
};

/// Build the SSA overlay: phi placement on the iterated dominance frontier
/// of each promoted slot's store blocks, then renaming down the dominator
/// tree. Slots not in `trackedSlots(fn)` (escaping address) are skipped —
/// loads of those keep no mapping and the range analysis treats them as ⊤.
[[nodiscard]] SsaFunction buildSsa(const Function &fn, const Cfg &cfg,
                                   const Dominators &doms);

/// Structural verification of an overlay: every promoted-slot load maps to
/// a def of the same slot, every phi lives at a join and has exactly one
/// incoming entry per reachable CFG predecessor, and every incoming def id
/// is in range. Returns human-readable violations (empty = valid).
[[nodiscard]] std::vector<std::string> verifySsa(const SsaFunction &ssa,
                                                 const Cfg &cfg);

} // namespace sv::ir
