// Bottom-up call graph with mod/ref side-effect summaries — the
// interprocedural leg of the dependence tier (see ir/deps.hpp). The
// dependence tests in deps.cpp must not give up at every call site: a loop
// that calls a helper is still analyzable when the helper's summary proves
// which memory the call can read or write.
//
// The summary lattice per function (least to greatest effect):
//
//      Pure  ⊑  Read(args/globals)  ⊑  Mod(args/globals)  ⊑  Opaque
//
// where a summary is a set of (arg index | global name) entries on each of
// the read and mod sides, plus two escape bits:
//   capturesUnknown  the function stores through a symbol that is not a
//                    module global (e.g. an outlined region referencing an
//                    enclosing function's local by name) — callers must
//                    assume any of their memory may be written
//   opaque           effects unknown entirely (unresolved external callee,
//                    or a member of a recursive SCC — summaries for cycles
//                    widen to the lattice top instead of iterating)
//
// Summaries are computed bottom-up over Tarjan SCCs of the call graph:
// leaves first, callers merge callee summaries through the actual/formal
// argument map. Any SCC with more than one member, or with a self edge,
// is widened to opaque — conservative by construction, and guaranteed to
// terminate on the fuzzers' recursive helper cycles.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace sv::ir {

/// Mod/ref summary for one function. `argRead`/`argMod` index pointer
/// formals that the function (transitively) loads from / stores through;
/// the global sets name `@symbols` touched directly or via callees.
struct ModRef {
  bool opaque = false;
  bool capturesUnknown = false;
  std::set<usize> argRead;
  std::set<usize> argMod;
  std::set<std::string> globalRead;  ///< "@name"
  std::set<std::string> globalMod;   ///< "@name"

  [[nodiscard]] bool pure() const {
    return !opaque && !capturesUnknown && argRead.empty() && argMod.empty() &&
           globalRead.empty() && globalMod.empty();
  }
  [[nodiscard]] bool writesAnything() const {
    return opaque || capturesUnknown || !argMod.empty() || !globalMod.empty();
  }
  void widen() {
    opaque = true;
    capturesUnknown = true;
  }
};

struct CallGraph {
  /// Resolved module-internal edges, caller name -> callee names (every
  /// `@fn` operand of a call that names a module function, which covers
  /// both direct calls and outlined bodies passed to `@__kmpc_fork_call`).
  std::map<std::string, std::vector<std::string>> callees;
  std::map<std::string, ModRef> summaries;
  /// Members of recursive SCCs (more than one member, or a self edge):
  /// exactly the functions reachable from themselves through `callees`.
  std::set<std::string> recursive;

  [[nodiscard]] const ModRef *summaryOf(const std::string &name) const {
    const auto it = summaries.find(name);
    return it == summaries.end() ? nullptr : &it->second;
  }
};

/// True for external callees known to neither read nor write program
/// memory: math builtins, printf-family output, allocation, and the
/// lowering's offload/OpenMP runtime entry points.
[[nodiscard]] bool isPureExternal(const std::string &callee);

/// Per-function def-use helper: maps `%N` value ids to their defining
/// instruction and chases addresses through load / getelementptr / sext
/// chains to a root — an alloca result ("%N"), a global ("@name"), an
/// argument ("arg:i"), or the value itself when no further chasing is
/// possible. Sees through the parameter-spill idiom (`store arg:i %slot`
/// into a single-store slot), so Fortran array parameters root at their
/// `arg:i` rather than the spill slot.
class ValueChaser {
public:
  explicit ValueChaser(const Function &fn);

  [[nodiscard]] const Instr *def(const std::string &value) const {
    const auto it = defs_.find(value);
    return it == defs_.end() ? nullptr : it->second;
  }
  [[nodiscard]] std::string root(const std::string &value) const;

private:
  std::map<std::string, const Instr *> defs_;
  std::map<std::string, std::string> spills_; ///< single-store slot -> value
};

[[nodiscard]] CallGraph buildCallGraph(const Module &m);

} // namespace sv::ir
