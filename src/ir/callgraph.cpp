#include "ir/callgraph.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "support/strings.hpp"

namespace sv::ir {

namespace {

[[nodiscard]] bool isValueId(const std::string &s) {
  return !s.empty() && s.front() == '%';
}

[[nodiscard]] bool isGlobal(const std::string &s) {
  return !s.empty() && s.front() == '@';
}

[[nodiscard]] bool isArg(const std::string &s) { return str::startsWith(s, "arg:"); }

[[nodiscard]] std::optional<usize> argIndex(const std::string &s) {
  if (!isArg(s) || s.size() == 4) return std::nullopt;
  usize v = 0;
  for (usize i = 4; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<usize>(s[i] - '0');
  }
  return v;
}

/// External callees that touch no program memory at all: scalar math,
/// allocation (fresh memory only), and the offload/OpenMP runtime entry
/// points the lowering fabricates.
constexpr std::array kPureNames = {
    "sqrt", "fabs", "abs",  "exp",  "log",  "pow",  "sin", "cos",
    "tan",  "floor", "ceil", "fmin", "fmax", "min",  "max", "mod",
    "malloc", "free", "omp_get_wtime",
};

constexpr std::array kPurePrefixes = {
    "__kmpc_", "__tgt_", "__omp", "omp_", "__cuda", "cuda", "__hip",
    "hip",     "__sycl", "sycl_",
};

/// External callees that may read the memory their pointer arguments name
/// but never write program memory (array intrinsics and formatted output).
constexpr std::array kReadArgNames = {
    "printf", "fprintf", "dot_product", "sum", "maxval", "minval", "size",
};

enum class ExternKind { Pure, ReadArgs, Unknown };

[[nodiscard]] ExternKind externKind(const std::string &name) {
  for (const char *p : kPureNames)
    if (name == p) return ExternKind::Pure;
  for (const char *p : kReadArgNames)
    if (name == p) return ExternKind::ReadArgs;
  for (const char *p : kPurePrefixes)
    if (str::startsWith(name, p)) return ExternKind::Pure;
  return ExternKind::Unknown;
}

} // namespace

bool isPureExternal(const std::string &callee) {
  return externKind(callee) == ExternKind::Pure;
}

ValueChaser::ValueChaser(const Function &fn) {
  std::map<std::string, usize> storeCount;
  std::map<std::string, std::string> storeValue;
  for (const auto &b : fn.blocks)
    for (const auto &in : b.instrs) {
      if (!in.result.empty()) defs_.emplace(in.result, &in);
      if (in.op != "store" || in.operands.size() < 2) continue;
      const auto &addr = in.operands[1];
      if (!isValueId(addr)) continue;
      ++storeCount[addr];
      storeValue[addr] = in.operands[0];
    }
  for (const auto &[slot, n] : storeCount)
    if (n == 1) spills_.emplace(slot, storeValue.at(slot));
}

std::string ValueChaser::root(const std::string &value) const {
  std::string v = value;
  for (int depth = 0; depth < 16; ++depth) {
    if (!isValueId(v)) return v; // @global, arg:i, const:... are roots
    const Instr *in = def(v);
    if (!in) return v;
    if (in->op == "alloca") return v;
    if (in->op == "getelementptr" || in->op == "sext" || in->op == "bitcast") {
      if (in->operands.empty()) return v;
      v = in->operands[0];
      continue;
    }
    if (in->op == "load") {
      if (in->operands.empty()) return v;
      const auto &addr = in->operands[0];
      // See through single-store slots (parameter spills): the loaded
      // value is whatever the unique store put there.
      if (isValueId(addr)) {
        const Instr *slotDef = def(addr);
        if (slotDef && slotDef->op == "alloca") {
          const auto sp = spills_.find(addr);
          if (sp != spills_.end() && (isArg(sp->second) || isGlobal(sp->second) ||
                                      isValueId(sp->second))) {
            v = sp->second;
            continue;
          }
          return addr; // multi-store pointer slot: the slot is the root
        }
      }
      v = addr;
      continue;
    }
    return v; // call result, arithmetic, ... — the value is its own root
  }
  return v;
}

namespace {

struct SummaryBuilder {
  const Module &m;
  const std::set<std::string> &moduleGlobals;
  CallGraph &cg;

  void addRead(ModRef &s, const std::string &root) const {
    if (const auto i = argIndex(root)) {
      s.argRead.insert(*i);
      return;
    }
    if (isGlobal(root)) {
      if (moduleGlobals.count(root.substr(1))) s.globalRead.insert(root);
      else s.capturesUnknown = true; // by-name capture of an enclosing local
    }
    // local slots / constants / arithmetic results: invisible to callers
  }

  void addMod(ModRef &s, const std::string &root) const {
    if (const auto i = argIndex(root)) {
      s.argMod.insert(*i);
      return;
    }
    if (isGlobal(root)) {
      if (moduleGlobals.count(root.substr(1))) s.globalMod.insert(root);
      else s.capturesUnknown = true;
    }
  }

  void mergeCall(ModRef &s, const Instr &in, const ValueChaser &chase) const {
    if (in.operands.empty()) return;
    for (const auto &op : in.operands) {
      if (!isGlobal(op)) continue;
      if (&op == &in.operands.front()) continue; // handled below as callee
      // A module function passed by symbol (fork_call / registration):
      // its body runs, so merge its global-side effects.
      if (const ModRef *callee = cg.summaryOf(op)) mergeGlobals(s, *callee);
    }
    const auto &target = in.operands.front();
    if (!isGlobal(target)) {
      s.widen(); // indirect call
      return;
    }
    if (const ModRef *callee = cg.summaryOf(target)) {
      mergeGlobals(s, *callee);
      for (const usize j : callee->argRead)
        if (j + 1 < in.operands.size()) addRead(s, chase.root(in.operands[j + 1]));
      for (const usize j : callee->argMod)
        if (j + 1 < in.operands.size()) addMod(s, chase.root(in.operands[j + 1]));
      return;
    }
    switch (externKind(target.substr(1))) {
    case ExternKind::Pure: return;
    case ExternKind::ReadArgs:
      for (usize j = 1; j < in.operands.size(); ++j) addRead(s, chase.root(in.operands[j]));
      return;
    case ExternKind::Unknown: s.widen(); return;
    }
  }

  static void mergeGlobals(ModRef &s, const ModRef &callee) {
    if (callee.opaque) s.opaque = true;
    if (callee.capturesUnknown) s.capturesUnknown = true;
    s.globalRead.insert(callee.globalRead.begin(), callee.globalRead.end());
    s.globalMod.insert(callee.globalMod.begin(), callee.globalMod.end());
  }

  [[nodiscard]] ModRef summarize(const Function &fn) const {
    ModRef s;
    const ValueChaser chase(fn);
    for (const auto &b : fn.blocks) {
      for (const auto &in : b.instrs) {
        if (in.op == "load" && !in.operands.empty())
          addRead(s, chase.root(in.operands[0]));
        else if (in.op == "store" && in.operands.size() >= 2)
          addMod(s, chase.root(in.operands[1]));
        else if (in.op == "call")
          mergeCall(s, in, chase);
        if (s.opaque && s.capturesUnknown) return s; // already at lattice top
      }
    }
    return s;
  }
};

/// Iterative Tarjan SCC over function names; emits SCCs bottom-up
/// (callees before callers).
struct Tarjan {
  const std::map<std::string, std::vector<std::string>> &edges;
  std::map<std::string, u32> index, low;
  std::map<std::string, bool> onStack;
  std::vector<std::string> stack;
  u32 next = 0;
  std::vector<std::vector<std::string>> sccs;

  void run(const std::string &root) {
    struct Frame {
      std::string node;
      usize child = 0;
    };
    std::vector<Frame> frames{{root}};
    index[root] = low[root] = next++;
    stack.push_back(root);
    onStack[root] = true;
    while (!frames.empty()) {
      auto &fr = frames.back();
      const auto it = edges.find(fr.node);
      const auto &succ = it == edges.end() ? std::vector<std::string>{} : it->second;
      if (fr.child < succ.size()) {
        const std::string &w = succ[fr.child++];
        if (!index.count(w)) {
          index[w] = low[w] = next++;
          stack.push_back(w);
          onStack[w] = true;
          frames.push_back({w});
        } else if (onStack[w]) {
          low[fr.node] = std::min(low[fr.node], index[w]);
        }
      } else {
        if (low[fr.node] == index[fr.node]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            onStack[w] = false;
            scc.push_back(w);
            if (w == fr.node) break;
          }
          sccs.push_back(std::move(scc));
        }
        const std::string done = fr.node;
        frames.pop_back();
        if (!frames.empty())
          low[frames.back().node] = std::min(low[frames.back().node], low[done]);
      }
    }
  }
};

} // namespace

CallGraph buildCallGraph(const Module &m) {
  CallGraph cg;
  std::set<std::string> fnNames;
  for (const auto &f : m.functions) fnNames.insert(f.name);
  std::set<std::string> moduleGlobals;
  for (const auto &g : m.globals) moduleGlobals.insert(g.name);

  for (const auto &f : m.functions) {
    auto &out = cg.callees[f.name];
    for (const auto &b : f.blocks)
      for (const auto &in : b.instrs) {
        if (in.op != "call") continue;
        for (const auto &op : in.operands) {
          // Function names keep their '@' sigil throughout the graph —
          // callees, Tarjan keys and summary keys all use the same spelling.
          if (!isGlobal(op) || !fnNames.count(op)) continue;
          if (std::find(out.begin(), out.end(), op) == out.end()) out.push_back(op);
        }
      }
  }

  Tarjan tarjan{cg.callees, {}, {}, {}, {}, 0, {}};
  for (const auto &f : m.functions)
    if (!tarjan.index.count(f.name)) tarjan.run(f.name);

  std::map<std::string, const Function *> byName;
  for (const auto &f : m.functions) byName.emplace(f.name, &f);

  const SummaryBuilder builder{m, moduleGlobals, cg};
  for (const auto &scc : tarjan.sccs) {
    const bool selfLoop = [&] {
      if (scc.size() > 1) return true;
      const auto it = cg.callees.find(scc.front());
      if (it == cg.callees.end()) return false;
      return std::find(it->second.begin(), it->second.end(), scc.front()) !=
             it->second.end();
    }();
    if (selfLoop) {
      // Recursive cycle: widen every member to the lattice top instead of
      // iterating to a fixpoint — conservative and guaranteed to terminate.
      for (const auto &name : scc) {
        ModRef s;
        s.widen();
        cg.summaries[name] = s;
        cg.recursive.insert(name);
      }
      continue;
    }
    const auto it = byName.find(scc.front());
    if (it != byName.end()) cg.summaries[scc.front()] = builder.summarize(*it->second);
  }
  return cg;
}

} // namespace sv::ir
