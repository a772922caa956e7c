#include "lint/irlint.hpp"

#include <map>
#include <set>

#include "ir/dataflow.hpp"
#include "support/strings.hpp"

namespace sv::lint {

namespace {

using ir::BitSet;
using ir::Cfg;
using ir::FunctionRole;
using ir::Instr;

lang::Location locOf(const Instr &in) { return {in.file, in.line, 1}; }

/// First instruction of the block that carries a source location, if any.
const Instr *firstLocated(const ir::Block &b) {
  for (const auto &in : b.instrs)
    if (in.line >= 0) return &in;
  return nullptr;
}

// ------------------------------------------------------- per-function run --

class FunctionLinter {
public:
  FunctionLinter(const ir::FunctionFacts &facts, const std::set<std::string> &stubs,
                 Emitter &em)
      : fn_(facts.function()), stubs_(stubs), em_(em), cfg_(facts.cfg()) {}

  void run() {
    checkUnreachable();
    if (fn_.role == FunctionRole::Runtime) return;
    const auto slots = ir::trackedSlots(fn_);
    checkUninit(slots);
    checkDeadStores(slots);
    if (fn_.role == FunctionRole::User) checkTransfers();
  }

private:
  void add(Check check, Severity sev, lang::Location loc, std::string symbol,
           std::string message) {
    em_.emit(check, sev, loc, std::move(symbol), fn_.name, std::move(message));
  }

  // --------------------------------------------------- unreachable-block --

  // Only blocks carrying source-located instructions are worth a diagnostic:
  // the lowering synthesises location-free continuation blocks after
  // ret/break/continue by design, and those are not a defect in the program.
  void checkUnreachable() {
    for (const u32 b : ir::unreachableBlocks(cfg_)) {
      const Instr *in = firstLocated(fn_.blocks[b]);
      if (!in) continue;
      add(Check::UnreachableBlock, Severity::Warning, locOf(*in), fn_.blocks[b].name,
          "block '" + fn_.blocks[b].name + "' is unreachable from the entry");
    }
  }

  // --------------------------------------------------------- uninit-use --

  /// Slots the uninitialised-use check must stay silent on: `ptr`-typed
  /// allocas hold objects and pointers whose "value" is established by
  /// constructors and reference-taking callees the IR does not model, and a
  /// slot whose loaded value feeds a getelementptr is an array handle
  /// (Fortran arrays lower this way) initialised through `allocate`-style
  /// by-reference calls.
  std::set<std::string> uninitExempt(const std::set<std::string> &slots) const {
    std::set<std::string> exempt;
    std::map<std::string, std::string> loadedFrom; // load result -> slot
    for (const auto &b : fn_.blocks) {
      for (const auto &in : b.instrs) {
        if (in.op == "alloca" && (in.type == "ptr" || in.line < 0) &&
            slots.count(in.result))
          exempt.insert(in.result);
        else if (in.op == "load" && !in.operands.empty() && slots.count(in.operands[0]))
          loadedFrom.emplace(in.result, in.operands[0]);
        else if (in.op == "getelementptr" && !in.operands.empty()) {
          const auto it = loadedFrom.find(in.operands[0]);
          if (it != loadedFrom.end()) exempt.insert(it->second);
        }
      }
    }
    return exempt;
  }

  void checkUninit(const std::set<std::string> &slots) {
    const auto rd = ir::computeReachingDefs(fn_, cfg_, slots);
    const auto exempt = uninitExempt(slots);
    for (usize b = 0; b < fn_.blocks.size(); ++b) {
      if (!cfg_.reachable[b]) continue; // empty in-sets would all read "uninit"
      BitSet facts = rd.solution.in[b];
      const auto &instrs = fn_.blocks[b].instrs;
      for (usize i = 0; i < instrs.size(); ++i) {
        const auto &in = instrs[i];
        // A temp operand whose (unique) definition does not reach this use:
        // only a malformed CFG or use-before-def can produce it.
        for (const auto &op : in.operands) {
          if (!str::startsWith(op, "%")) continue;
          const u32 v = rd.idOf(op);
          if (v == static_cast<u32>(-1)) continue;
          bool reaches = false;
          for (const u32 fact : rd.defsOfValue[v]) reaches = reaches || facts.test(fact);
          if (!reaches)
            add(Check::UninitUse, Severity::Error, locOf(in), op,
                "use of " + op + " is not reached by its definition");
        }
        if (in.op == "load" && !in.operands.empty() && slots.count(in.operands[0]) &&
            !exempt.count(in.operands[0])) {
          const u32 v = rd.idOf("mem:" + in.operands[0]);
          bool real = false, uninit = false;
          if (v != static_cast<u32>(-1)) {
            for (const u32 fact : rd.defsOfValue[v]) {
              if (!facts.test(fact)) continue;
              (rd.defs[fact].uninit ? uninit : real) = true;
            }
          }
          if (uninit && !real)
            add(Check::UninitUse, Severity::Error, locOf(in), in.operands[0],
                "read of local " + in.operands[0] + " before any initialisation");
          else if (uninit && real)
            add(Check::UninitUse, Severity::Warning, locOf(in), in.operands[0],
                "local " + in.operands[0] +
                    " may be read before initialisation on some paths");
        }
        rd.step(facts, static_cast<u32>(b), i);
      }
    }
  }

  // --------------------------------------------------------- dead-store --

  void checkDeadStores(const std::set<std::string> &slots) {
    const auto lv = ir::computeLiveness(fn_, cfg_, slots);
    // Only slots that are read somewhere can have an *overwritten* store —
    // the interesting defect. A slot with no loads at all is a write-back
    // temp the lowering materialised for a non-addressable lvalue (Kokkos
    // view writes, accessor assignments); flagging those is pure noise, and
    // "variable never used" belongs to the AST tier anyway.
    std::set<std::string> loaded;
    // A slot that spills an argument may be a by-reference capture of an
    // outlined kernel (reduction write-backs store through it last); every
    // store to such a slot is observable by the caller.
    // ... and a location-less alloca is a temp the lowering materialised
    // for a non-addressable lvalue (view/accessor writes): its final
    // write-back store is the assignment's effect, not a defect.
    std::set<std::string> argSlots;
    for (const auto &b : fn_.blocks) {
      for (const auto &in : b.instrs) {
        if (in.op == "load" && !in.operands.empty() && slots.count(in.operands[0]))
          loaded.insert(in.operands[0]);
        else if (in.op == "store" && in.operands.size() >= 2 &&
                 str::startsWith(in.operands[0], "arg:"))
          argSlots.insert(in.operands[1]);
        else if (in.op == "alloca" && in.line < 0 && slots.count(in.result))
          argSlots.insert(in.result);
      }
    }

    for (usize b = 0; b < fn_.blocks.size(); ++b) {
      if (!cfg_.reachable[b]) continue; // already reported as unreachable
      BitSet live = lv.solution.out[b];
      const auto &instrs = fn_.blocks[b].instrs;
      for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
        const auto &in = *it;
        if (in.op == "store" && in.operands.size() >= 2) {
          const auto sid = lv.slotIds.find(in.operands[1]);
          if (sid == lv.slotIds.end()) continue;
          if (!live.test(sid->second) && loaded.count(in.operands[1]) &&
              !argSlots.count(in.operands[1]))
            add(Check::DeadStore, Severity::Warning, locOf(in), in.operands[1],
                "stored value of local " + in.operands[1] +
                    " is overwritten before any read");
          live.reset(sid->second);
        } else if (in.op == "load" && !in.operands.empty()) {
          const auto sid = lv.slotIds.find(in.operands[0]);
          if (sid != lv.slotIds.end()) live.set(sid->second);
        }
      }
    }
  }

  // ---------------------------------------------------- device-transfer --

  /// Chase a value to its underlying storage: through `load`s (pointer held
  /// in a slot) and `getelementptr`s (element of the pointed-to buffer) back
  /// to an alloca result, a `@global`, or an `arg:`.
  void ensureDefs() const {
    if (!defs_.empty()) return;
    for (const auto &b : fn_.blocks)
      for (const auto &in : b.instrs)
        if (!in.result.empty()) defs_.emplace(in.result, &in);
  }

  std::string rootOf(std::string v) const {
    ensureDefs();
    for (usize depth = 0; depth < 16 && str::startsWith(v, "%"); ++depth) {
      const auto it = defs_.find(v);
      if (it == defs_.end()) break;
      const Instr &d = *it->second;
      if ((d.op == "load" || d.op == "getelementptr") && !d.operands.empty())
        v = d.operands[0];
      else
        break;
    }
    return v;
  }

  static bool isMemcpyKind(const std::string &op, std::string_view dir) {
    return str::startsWith(op, "@") && str::endsWith(op, dir);
  }

  bool isKernelLaunch(const Instr &in) const {
    const auto &callee = in.operands[0];
    return callee == "@__cudaPushCallConfiguration" ||
           callee == "@__hipPushCallConfiguration" || callee == "@__tgt_target_kernel" ||
           stubs_.count(callee) > 0;
  }

  /// Intra-block state machine over the offload driver calls of a host
  /// function. Cross-block transfer state is deliberately not propagated:
  /// the main loops of real codes re-copy per iteration through back edges,
  /// and flagging those would drown the signal.
  void checkTransfers() {
    ensureDefs();
    for (usize b = 0; b < fn_.blocks.size(); ++b) {
      if (!cfg_.reachable[b]) continue;
      // Host→device copies with no kernel launch or source update since.
      std::map<std::pair<std::string, std::string>, const Instr *> pendingH2D;
      // Device→host copies: host buffer root -> was a kernel launched since?
      std::map<std::string, bool> d2hState;
      for (const auto &in : fn_.blocks[b].instrs) {
        if (in.op == "call" && !in.operands.empty()) {
          const auto &callee = in.operands[0];
          const bool memcpyCall =
              str::startsWith(callee, "@") && str::endsWith(callee, "Memcpy");
          if (memcpyCall && in.operands.size() >= 5) {
            const std::string dst = rootOf(in.operands[1]);
            const std::string src = rootOf(in.operands[2]);
            const auto &kind = in.operands[4];
            if (isMemcpyKind(kind, "MemcpyHostToDevice")) {
              const auto key = std::make_pair(dst, src);
              if (pendingH2D.count(key))
                add(Check::DeviceTransfer, Severity::Warning, locOf(in), dst,
                    "host-to-device copy repeats an identical copy with no kernel "
                    "launch or source update in between");
              pendingH2D[key] = &in;
            } else if (isMemcpyKind(kind, "MemcpyDeviceToHost")) {
              d2hState[dst] = false;
            }
          } else if (isKernelLaunch(in)) {
            pendingH2D.clear(); // device state changed; re-copies are live
            for (auto &[root, launched] : d2hState) launched = true;
          } else if (!memcpyCall) {
            // An opaque call may touch any buffer — drop all state.
            pendingH2D.clear();
            d2hState.clear();
          }
        } else if (in.op == "store" && in.operands.size() >= 2) {
          const std::string root = rootOf(in.operands[1]);
          for (auto it = pendingH2D.begin(); it != pendingH2D.end();)
            it = it->first.second == root ? pendingH2D.erase(it) : std::next(it);
          d2hState.erase(root);
        } else if (in.op == "load" && !in.operands.empty() &&
                   str::startsWith(in.operands[0], "%")) {
          // An element read (load through a gep) of a host buffer whose
          // device→host snapshot predates the last kernel launch.
          const auto it = defs_.find(in.operands[0]);
          if (it != defs_.end() && it->second->op == "getelementptr") {
            const std::string root = rootOf(in.operands[0]);
            const auto st = d2hState.find(root);
            if (st != d2hState.end() && st->second)
              add(Check::DeviceTransfer, Severity::Warning, locOf(in), root,
                  "host read of a buffer copied back before the last kernel "
                  "launch; the data is stale");
          }
        }
      }
    }
  }

  const ir::Function &fn_;
  const std::set<std::string> &stubs_;
  Emitter &em_;
  const Cfg &cfg_;
  mutable std::map<std::string, const Instr *> defs_; ///< lazy result -> instr
};

} // namespace

std::vector<Diagnostic> runIr(const ir::ModuleFacts &facts) {
  std::set<std::string> stubs;
  for (const auto &fn : facts.module().functions)
    if (fn.role == FunctionRole::DeviceStub) stubs.insert(fn.name); // names carry '@'

  Emitter em;
  for (const auto &ff : facts.functions()) FunctionLinter(ff, stubs, em).run();
  return em.take();
}

} // namespace sv::lint
