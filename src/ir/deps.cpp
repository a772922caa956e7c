#include "ir/deps.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "ir/ssa.hpp"
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

/// Parse an integer "const:<v>" operand; nullopt for float immediates.
[[nodiscard]] std::optional<i64> constVal(const std::string &s) {
  if (!str::startsWith(s, "const:")) return std::nullopt;
  const std::string t = s.substr(6);
  if (t.empty()) return std::nullopt;
  usize i = t.front() == '-' ? 1 : 0;
  if (i >= t.size()) return std::nullopt;
  i64 v = 0;
  for (; i < t.size(); ++i) {
    if (t[i] < '0' || t[i] > '9') return std::nullopt;
    v = v * 10 + (t[i] - '0');
  }
  return t.front() == '-' ? -v : v;
}

[[nodiscard]] std::string displayOf(const std::string &root) {
  if (isGlobal(root)) return root.substr(1);
  return root;
}

} // namespace

const char *name(DepKind k) {
  switch (k) {
  case DepKind::Flow: return "flow";
  case DepKind::Anti: return "anti";
  case DepKind::Output: return "output";
  }
  return "?";
}

const char *name(DepDirection d) {
  switch (d) {
  case DepDirection::Lt: return "<";
  case DepDirection::Eq: return "=";
  case DepDirection::Gt: return ">";
  case DepDirection::Any: return "*";
  }
  return "?";
}

const char *name(ScalarClass c) {
  switch (c) {
  case ScalarClass::Induction: return "induction";
  case ScalarClass::Privatizable: return "privatizable";
  case ScalarClass::Reduction: return "reduction";
  case ScalarClass::Carried: return "carried";
  case ScalarClass::WriteOnly: return "write-only";
  case ScalarClass::Unknown: return "unknown";
  }
  return "?";
}

bool LoopInfo::contains(u32 block) const {
  return std::binary_search(blocks.begin(), blocks.end(), block);
}

// ---------------------------------------------------------- loop recovery --

namespace {

/// Natural loop of the back edges latches->header: header plus everything
/// that reaches a latch without passing through the header.
[[nodiscard]] std::vector<u32> naturalLoop(const Cfg &cfg, u32 header,
                                           const std::set<u32> &latches) {
  std::set<u32> body{header};
  std::vector<u32> work;
  for (const u32 l : latches)
    if (body.insert(l).second) work.push_back(l);
  while (!work.empty()) {
    const u32 b = work.back();
    work.pop_back();
    for (const u32 p : cfg.preds[b]) {
      if (!cfg.reachable[p]) continue;
      if (body.insert(p).second) work.push_back(p);
    }
  }
  return {body.begin(), body.end()};
}

[[nodiscard]] const Instr *loopLocation(const Function &fn, const LoopInfo &L) {
  const auto &h = fn.blocks[L.header];
  for (const auto &in : h.instrs)
    if (in.op == "condbr" && in.line >= 0) return &in;
  for (const auto &in : h.instrs)
    if (in.line >= 0) return &in;
  for (const u32 b : L.blocks)
    for (const auto &in : fn.blocks[b].instrs)
      if (in.line >= 0) return &in;
  return nullptr;
}

/// Recognise the lowering's induction idiom for loop L: the header's
/// conditional compare loads a slot that has exactly one in-loop store,
/// whose value is `add/sub(load slot, const:k)`. Fills induction, step,
/// bounds and trip count (constant bounds, unit step only).
void recogniseInduction(LoopInfo &L, const Function &fn, const ValueChaser &chase) {
  const Block &h = fn.blocks[L.header];
  const Instr *br = nullptr;
  for (const auto &in : h.instrs)
    if (in.op == "condbr") {
      br = &in;
      break;
    }
  if (!br || br->operands.empty()) return;
  const Instr *cmp = chase.def(br->operands[0]);
  if (!cmp || (cmp->op != "icmp" && cmp->op != "fcmp") || cmp->operands.size() < 3)
    return;
  std::string pred = cmp->operands[0];

  const auto slotOf = [&](const std::string &v) -> std::string {
    const Instr *d = chase.def(v);
    if (!d || d->op != "load" || d->operands.empty()) return {};
    const Instr *addrDef = chase.def(d->operands[0]);
    if (addrDef && addrDef->op == "getelementptr") return {}; // array element
    return chase.root(d->operands[0]);
  };

  for (int side = 0; side < 2; ++side) {
    const std::string cand = slotOf(cmp->operands[1 + side]);
    if (cand.empty() || isArg(cand)) continue;
    // Exactly one in-loop store, of add/sub(load cand, const).
    const Instr *update = nullptr;
    usize stores = 0;
    for (const u32 b : L.blocks)
      for (const auto &in : fn.blocks[b].instrs) {
        if (in.op != "store" || in.operands.size() < 2) continue;
        if (chase.root(in.operands[1]) != cand) continue;
        ++stores;
        update = &in;
      }
    if (stores != 1 || !update) continue;
    const Instr *arith = chase.def(update->operands[0]);
    if (!arith || (arith->op != "add" && arith->op != "sub") ||
        arith->operands.size() < 2)
      continue;
    std::optional<i64> k;
    std::string other;
    if (const auto c = constVal(arith->operands[1])) {
      k = c;
      other = arith->operands[0];
    } else if (arith->op == "add") {
      if (const auto c2 = constVal(arith->operands[0])) {
        k = c2;
        other = arith->operands[1];
      }
    }
    if (!k || *k == 0) continue;
    if (slotOf(other) != cand) continue;

    L.inductionSlot = cand;
    L.inductionName = displayOf(cand);
    L.step = arith->op == "sub" ? -*k : *k;
    L.affine = true;
    if (side == 1) {
      // Induction was the rhs of the compare: mirror the predicate.
      if (pred == "lt") pred = "gt";
      else if (pred == "gt") pred = "lt";
      else if (pred == "le") pred = "ge";
      else if (pred == "ge") pred = "le";
    }
    // Initial value: the unique out-of-loop constant store, if any.
    std::optional<i64> lo;
    usize outStores = 0;
    for (usize b = 0; b < fn.blocks.size(); ++b) {
      if (L.contains(static_cast<u32>(b))) continue;
      for (const auto &in : fn.blocks[b].instrs) {
        if (in.op != "store" || in.operands.size() < 2) continue;
        if (chase.root(in.operands[1]) != cand) continue;
        ++outStores;
        lo = constVal(in.operands[0]);
      }
    }
    if (outStores == 1 && lo) L.lowerBound = lo;
    const auto hi = constVal(cmp->operands[side == 0 ? 2 : 1]);
    if (L.lowerBound && hi && (L.step == 1 || L.step == -1)) {
      i64 trip = -1;
      if (L.step == 1 && pred == "lt") trip = *hi - *L.lowerBound;
      else if (L.step == 1 && pred == "le") trip = *hi - *L.lowerBound + 1;
      else if (L.step == -1 && pred == "gt") trip = *L.lowerBound - *hi;
      else if (L.step == -1 && pred == "ge") trip = *L.lowerBound - *hi + 1;
      if (trip >= 0) L.tripCount = trip;
    }
    return;
  }
}

} // namespace

std::vector<LoopInfo> findLoops(const FunctionFacts &facts) {
  const Function &fn = facts.function();
  const Cfg &cfg = facts.cfg();
  std::map<u32, std::set<u32>> latches; // header -> back-edge sources
  for (u32 u = 0; u < cfg.size(); ++u)
    for (const u32 h : cfg.succs[u])
      if (facts.isBackEdge(u, h)) latches[h].insert(u);
  std::vector<LoopInfo> loops;
  loops.reserve(latches.size());
  const ValueChaser chase(fn);
  for (const auto &[header, srcs] : latches) {
    LoopInfo L;
    L.header = header;
    L.blocks = naturalLoop(cfg, header, srcs);
    if (const Instr *at = loopLocation(fn, L)) {
      L.line = at->line;
      L.file = at->file;
    }
    recogniseInduction(L, fn, chase);
    loops.push_back(std::move(L));
  }
  // Nesting depth: count strictly containing loops.
  for (auto &L : loops)
    for (const auto &M : loops)
      if (M.header != L.header && M.blocks.size() > L.blocks.size() &&
          M.contains(L.header))
        ++L.depth;
  std::sort(loops.begin(), loops.end(), [](const LoopInfo &a, const LoopInfo &b) {
    return a.header < b.header;
  });
  return loops;
}

// ------------------------------------------------------- access modelling --

namespace {

/// An affine view of a subscript: c + Σ coeff·load(root), with induction
/// roots and loop-invariant symbols kept apart.
struct Affine {
  bool ok = false;
  i64 c = 0;
  std::map<std::string, i64> iv;  ///< induction root -> coefficient
  std::map<std::string, i64> sym; ///< invariant scalar root -> coefficient
};

struct AffineBuilder {
  const ValueChaser &chase;
  const std::set<std::string> &ivRoots;
  /// Value-range slice of the enclosing function (nullable): scalars whose
  /// range is a singleton fold to constants, which turns linearised
  /// subscripts like `i*ny + j` (symbolic × symbolic without it) into
  /// testable affine forms.
  const FunctionRanges *ranges = nullptr;
  u32 block = 0; ///< block of the consuming access, for range refinement
  const LoopInfo *loop = nullptr; ///< loop under test, for store expansion

  [[nodiscard]] std::optional<i64> constFromRange(const std::string &v) const {
    if (!ranges) return std::nullopt;
    const Interval iv = ranges->valueAt(v, block);
    if (iv.isConst()) return iv.lo;
    return std::nullopt;
  }

  [[nodiscard]] Affine build(const std::string &v, int depth = 0) const {
    Affine a;
    if (depth > 12) return a;
    if (const auto c = constVal(v)) {
      a.ok = true;
      a.c = *c;
      return a;
    }
    if (isArg(v)) {
      if (const auto c = constFromRange(v)) {
        a.ok = true;
        a.c = *c;
        return a;
      }
      a.ok = true;
      a.sym[v] = 1;
      return a;
    }
    if (!isValueId(v)) return a;
    const Instr *d = chase.def(v);
    if (!d) return a;
    if (d->op == "load") {
      if (d->operands.empty()) return a;
      const Instr *addrDef = chase.def(d->operands[0]);
      if (addrDef && addrDef->op == "getelementptr") return a; // array element
      const std::string r = chase.root(d->operands[0]);
      if (ivRoots.count(r)) {
        a.ok = true;
        a.iv[r] += 1;
        return a;
      }
      if (const auto c = constFromRange(v)) {
        a.ok = true;
        a.c = *c;
        return a;
      }
      // Subscript spill (`idx = j*nx + i` stored once, reused for several
      // accesses): when the SSA overlay shows this load's reaching def is a
      // store executing in the same iteration of the loop under test,
      // expand the stored expression — the inductions it reads hold their
      // current-iteration values there too.
      if (ranges && loop) {
        const SsaFunction &ssa = ranges->facts->ssa();
        const auto it = ssa.loadDef.find(v);
        if (it != ssa.loadDef.end()) {
          const SsaDef &sd = ssa.defs[it->second];
          if (sd.kind == SsaDef::Kind::Store && loop->contains(sd.block) &&
              !sd.stored.empty()) {
            Affine e = build(sd.stored, depth + 1);
            if (e.ok) return e;
          }
        }
      }
      a.ok = true;
      a.sym[r] += 1;
      return a;
    }
    if (d->op == "sext" || d->op == "trunc" || d->op == "zext") {
      if (d->operands.empty()) return a;
      return build(d->operands[0], depth + 1);
    }
    if ((d->op == "add" || d->op == "sub") && d->operands.size() >= 2) {
      Affine l = build(d->operands[0], depth + 1);
      Affine r = build(d->operands[1], depth + 1);
      if (!l.ok || !r.ok) return a;
      const i64 sign = d->op == "sub" ? -1 : 1;
      a = std::move(l);
      a.c += sign * r.c;
      for (const auto &[k, cf] : r.iv) a.iv[k] += sign * cf;
      for (const auto &[k, cf] : r.sym) a.sym[k] += sign * cf;
      prune(a);
      return a;
    }
    if (d->op == "mul" && d->operands.size() >= 2) {
      Affine l = build(d->operands[0], depth + 1);
      Affine r = build(d->operands[1], depth + 1);
      if (!l.ok || !r.ok) return a;
      const Affine *scale = nullptr, *base = nullptr;
      if (l.iv.empty() && l.sym.empty()) {
        scale = &l;
        base = &r;
      } else if (r.iv.empty() && r.sym.empty()) {
        scale = &r;
        base = &l;
      } else {
        return a; // symbolic × symbolic (e.g. j*nx): not affine
      }
      a = *base;
      a.c *= scale->c;
      for (auto &[k, cf] : a.iv) cf *= scale->c;
      for (auto &[k, cf] : a.sym) cf *= scale->c;
      prune(a);
      return a;
    }
    return a;
  }

  static void prune(Affine &a) {
    for (auto it = a.iv.begin(); it != a.iv.end();)
      it = it->second == 0 ? a.iv.erase(it) : std::next(it);
    for (auto it = a.sym.begin(); it != a.sym.end();)
      it = it->second == 0 ? a.sym.erase(it) : std::next(it);
  }
};

struct Access {
  std::string root;
  bool write = false;
  bool hasIndex = false; ///< false: whole-object / unknown subscript
  Affine aff;            ///< valid when hasIndex && aff.ok
  u32 block = 0;
  usize pos = 0; ///< instruction position for same-iteration ordering
  i32 line = -1;
};

struct CallEffects {
  std::set<std::string> reads, writes;
  bool unknown = false;
};

struct FunctionAnalyzer {
  const Function &fn;
  const CallGraph &cg;
  const FunctionRanges *ranges = nullptr; ///< nullable interprocedural slice
  const ValueChaser chase;
  std::set<std::string> ivRoots; // every recognised induction in this fn

  explicit FunctionAnalyzer(const Function &f, const CallGraph &g,
                            const FunctionRanges *r)
      : fn(f), cg(g), ranges(r), chase(f) {}

  [[nodiscard]] bool memoryRoot(const std::string &r) const {
    if (isGlobal(r) || isArg(r)) return true;
    if (!isValueId(r)) return false;
    const Instr *d = chase.def(r);
    return d && (d->op == "alloca" ||
                 (d->op == "call" && !d->operands.empty() &&
                  d->operands.front() == "@malloc"));
  }

  void addEffect(CallEffects &fx, const std::string &root, bool write) const {
    if (!memoryRoot(root)) return;
    (write ? fx.writes : fx.reads).insert(root);
  }

  [[nodiscard]] CallEffects callEffects(const Instr &in) const {
    CallEffects fx;
    if (in.operands.empty()) {
      fx.unknown = true;
      return fx;
    }
    const auto mergeGlobals = [&](const ModRef &s) {
      if (s.opaque || s.capturesUnknown) fx.unknown = true;
      for (const auto &g : s.globalRead) fx.reads.insert(g);
      for (const auto &g : s.globalMod) fx.writes.insert(g);
    };
    // Module functions passed by symbol (fork_call and friends): their
    // bodies run, so their global effects apply here.
    for (usize i = 1; i < in.operands.size(); ++i)
      if (isGlobal(in.operands[i]))
        if (const ModRef *s = cg.summaryOf(in.operands[i]))
          mergeGlobals(*s);
    const auto &target = in.operands.front();
    if (!isGlobal(target)) {
      fx.unknown = true;
      return fx;
    }
    const std::string callee = target.substr(1);
    if (const ModRef *s = cg.summaryOf(target)) {
      mergeGlobals(*s);
      for (const usize j : s->argRead)
        if (j + 1 < in.operands.size())
          addEffect(fx, chase.root(in.operands[j + 1]), false);
      for (const usize j : s->argMod)
        if (j + 1 < in.operands.size())
          addEffect(fx, chase.root(in.operands[j + 1]), true);
      return fx;
    }
    if (isPureExternal(callee)) return fx;
    // Read-only externals (printf, dot_product, ...) are modelled inside
    // the call graph's whitelist; anything else is unknown. Re-use the
    // whitelist by probing a one-off summary-free classification: treat
    // unresolved calls that only read as reads of their pointer roots.
    static const std::set<std::string> kReadArgs = {
        "printf", "fprintf", "dot_product", "sum", "maxval", "minval", "size"};
    if (kReadArgs.count(callee)) {
      for (usize j = 1; j < in.operands.size(); ++j)
        addEffect(fx, chase.root(in.operands[j]), false);
      return fx;
    }
    fx.unknown = true;
    return fx;
  }

  /// Classify one load/store address: array element (via getelementptr)
  /// with its subscript, or a direct scalar slot access.
  struct Addr {
    std::string root;
    bool isArray = false;
    std::string index;
  };
  [[nodiscard]] Addr classifyAddr(const std::string &addr) const {
    const Instr *d = chase.def(addr);
    if (d && d->op == "getelementptr" && d->operands.size() >= 2)
      return {chase.root(d->operands[0]), true, d->operands[1]};
    return {chase.root(addr), false, {}};
  }
};

// ----------------------------------------------------------- pair testing --

[[nodiscard]] i64 gcd64(i64 a, i64 b) {
  a = a < 0 ? -a : a;
  b = b < 0 ? -b : b;
  while (b) {
    const i64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

struct PairResult {
  enum class Kind { Independent, Dependent, Assumed } kind = Kind::Assumed;
  bool carried = true;
  bool proven = false;
  std::optional<i64> distance;
  DepDirection direction = DepDirection::Any;
};

/// Run the subscript tests for one access pair with respect to loop L.
/// `w` must be the write. Distances are in iterations of L (value distance
/// divided by the induction step), signed as sink-minus-source.
[[nodiscard]] PairResult testPair(const LoopInfo &L, const Affine &w, const Affine &x) {
  PairResult r;
  // Everything except L's own induction must match exactly so it cancels
  // under the (=,...,=,*,=,...,=) direction-vector convention; otherwise
  // fall through to the coupled GCD test.
  Affine dw = w, dx = x;
  const i64 a1 = [&] {
    const auto it = dw.iv.find(L.inductionSlot);
    return it == dw.iv.end() ? i64{0} : it->second;
  }();
  const i64 a2 = [&] {
    const auto it = dx.iv.find(L.inductionSlot);
    return it == dx.iv.end() ? i64{0} : it->second;
  }();
  dw.iv.erase(L.inductionSlot);
  dx.iv.erase(L.inductionSlot);

  if (dw.sym != dx.sym) return r; // uncancelled symbols: assumed

  if (dw.iv != dx.iv) {
    // Coupled subscripts (MIV): GCD test over every induction coefficient.
    i64 g = gcd64(a1, a2);
    for (const auto &[k, c] : dw.iv) g = gcd64(g, c);
    for (const auto &[k, c] : dx.iv) g = gcd64(g, c);
    const i64 dc = dx.c - dw.c;
    if (g != 0 && dc % g != 0) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
    return r; // assumed
  }

  const i64 dc = dx.c - dw.c; // solve a1·Vw + cw = a2·Vx + cx
  if (a1 == 0 && a2 == 0) {
    // ZIV: same element every iteration, or never the same element.
    if (dc != 0) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
    r.kind = PairResult::Kind::Dependent;
    r.proven = true;
    // The element is touched in *every* iteration, so besides the
    // loop-independent edge the write in one iteration reaches all later
    // ones — carried, unless the loop provably runs a single iteration.
    const bool single = (L.tripCount && *L.tripCount <= 1) ||
                        (L.ivMin && L.ivMax && *L.ivMin == *L.ivMax);
    r.carried = !single;
    if (single) {
      r.distance = 0;
      r.direction = DepDirection::Eq;
    } else {
      r.direction = DepDirection::Any;
    }
    return r;
  }
  if (a1 == a2) {
    // Strong SIV: exact value distance (cw - cx) / a.
    const i64 dvNum = -dc;
    if (dvNum % a1 != 0) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
    const i64 dv = dvNum / a1; // Vx - Vw at collision
    if (L.step == 0 || dv % L.step != 0) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
    const i64 d = dv / L.step; // iterations, sink minus source
    if (L.ivMin && L.ivMax) {
      // Iteration-count ceiling from the induction's value bounds (exact
      // with constant bounds, over-approximate from ranges — either way a
      // distance outside it cannot be realised).
      const i64 stepAbs = L.step < 0 ? -L.step : L.step;
      const i64 maxTrip = stepAbs > 0 ? (*L.ivMax - *L.ivMin) / stepAbs + 1 : 1;
      if (d >= maxTrip || d <= -maxTrip) {
        r.kind = PairResult::Kind::Independent;
        r.proven = true;
        return r;
      }
    }
    r.kind = PairResult::Kind::Dependent;
    r.proven = true;
    r.carried = d != 0;
    r.distance = d;
    r.direction = d > 0 ? DepDirection::Lt : d < 0 ? DepDirection::Gt : DepDirection::Eq;
    return r;
  }
  if (a1 == 0 || a2 == 0) {
    // Weak-zero SIV: one side touches a fixed element; collision at a
    // single induction value V = (c_other - c_var) / a_var.
    const i64 a = a1 == 0 ? a2 : a1;
    const i64 num = a1 == 0 ? -dc : dc;
    if (num % a != 0) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
    const i64 v = num / a;
    if (L.ivMin && L.ivMax) {
      if (v < *L.ivMin || v > *L.ivMax) {
        // Colliding induction value outside the reachable bounds — sound
        // even when the bounds are a range-derived over-approximation.
        r.kind = PairResult::Kind::Independent;
        r.proven = true;
        return r;
      }
      if (*L.ivMin == *L.ivMax) {
        // Single reachable induction value: no cross-iteration pairing.
        r.kind = PairResult::Kind::Independent;
        r.proven = true;
        return r;
      }
      if (L.ivExact) {
        // Constant bounds place the collision inside the loop: proven.
        r.kind = PairResult::Kind::Dependent;
        r.proven = true;
        r.carried = true;
        r.direction = DepDirection::Any;
        return r;
      }
      // In range under approximate bounds: the collision may or may not
      // be reachable — stays assumed.
    }
    return r; // bounds unknown: assumed
  }
  // General SIV (a1 != a2, both nonzero): Banerjee with the induction's
  // value bounds (constant or range-derived — the test only ever proves
  // independence, so over-approximate bounds stay sound), else GCD.
  if (L.ivMin && L.ivMax) {
    const i64 vmin = *L.ivMin, vmax = *L.ivMax;
    const i64 e1 = a1 * vmin, e2 = a1 * vmax, e3 = a2 * vmin, e4 = a2 * vmax;
    const i64 lhsMin = std::min(e1, e2) - std::max(e3, e4);
    const i64 lhsMax = std::max(e1, e2) - std::min(e3, e4);
    if (dc < lhsMin || dc > lhsMax) {
      r.kind = PairResult::Kind::Independent;
      r.proven = true;
      return r;
    }
  }
  const i64 g = gcd64(a1, a2);
  if (g != 0 && dc % g != 0) {
    r.kind = PairResult::Kind::Independent;
    r.proven = true;
    return r;
  }
  return r; // assumed
}

} // namespace

// -------------------------------------------------------- loop analysis --

namespace {

struct LoopAnalyzer {
  const FunctionAnalyzer &fa;
  const Cfg &cfg;
  LoopInfo &L;

  [[nodiscard]] bool inLoop(u32 b) const { return L.contains(b); }

  void run(const std::vector<LoopInfo> &allLoops) {
    const Function &fn = fa.fn;
    std::vector<Access> accesses;
    std::map<std::string, std::vector<const Instr *>> scalarLoads, scalarStores;
    // Globals read *directly* as operands (fadd double @t ...): the lowering
    // emits no load for them, but they are scalar reads all the same.
    std::map<std::string, std::vector<const Instr *>> scalarDirect;
    std::set<std::string> loopAllocas; ///< slots materialised inside the body
    CallEffects loopFx;

    usize pos = 0;
    for (const u32 b : L.blocks) {
      for (const auto &in : fn.blocks[b].instrs) {
        ++pos;
        if (in.op == "alloca" && !in.result.empty()) {
          loopAllocas.insert(in.result);
        } else if (in.op == "load" && !in.operands.empty()) {
          const auto addr = fa.classifyAddr(in.operands[0]);
          if (addr.isArray) {
            Access a{addr.root, false, true, {}, b, pos, in.line};
            a.aff = AffineBuilder{fa.chase, fa.ivRoots, fa.ranges, b, &L}.build(addr.index);
            accesses.push_back(std::move(a));
          } else {
            scalarLoads[addr.root].push_back(&in);
          }
        } else if (in.op == "store" && in.operands.size() >= 2) {
          if (isGlobal(in.operands[0])) scalarDirect[in.operands[0]].push_back(&in);
          const auto addr = fa.classifyAddr(in.operands[1]);
          if (addr.isArray) {
            Access a{addr.root, true, true, {}, b, pos, in.line};
            a.aff = AffineBuilder{fa.chase, fa.ivRoots, fa.ranges, b, &L}.build(addr.index);
            accesses.push_back(std::move(a));
          } else {
            scalarStores[addr.root].push_back(&in);
          }
        } else if (in.op == "call") {
          const CallEffects fx = fa.callEffects(in);
          if (fx.unknown) loopFx.unknown = true;
          for (const auto &root : fx.reads) {
            loopFx.reads.insert(root);
            accesses.push_back(Access{root, false, false, {}, b, pos, in.line});
          }
          for (const auto &root : fx.writes) {
            loopFx.writes.insert(root);
            accesses.push_back(Access{root, true, false, {}, b, pos, in.line});
          }
        } else {
          for (const auto &op : in.operands)
            if (isGlobal(op)) scalarDirect[op].push_back(&in);
        }
      }
    }

    classifyScalars(scalarLoads, scalarStores, scalarDirect, loopFx, loopAllocas,
                    allLoops);
    testAccessPairs(accesses, loopFx);

    bool scalarsBenign = true;
    for (const auto &s : L.scalars)
      if (s.cls != ScalarClass::Induction && s.cls != ScalarClass::Privatizable &&
          s.cls != ScalarClass::Reduction)
        scalarsBenign = false;
    bool carriedDep = false;
    for (const auto &d : L.deps)
      if (d.carried) carriedDep = true;
    L.provablyParallel =
        L.affine && L.analyzable && !carriedDep && scalarsBenign;
  }

  void testAccessPairs(const std::vector<Access> &accesses, const CallEffects &loopFx) {
    L.analyzable = L.affine && !loopFx.unknown;
    // Group by root; only roots with at least one write can carry.
    std::map<std::string, std::vector<const Access *>> byRoot;
    for (const auto &a : accesses) byRoot[a.root].push_back(&a);
    std::set<std::string> seen; // dedupe reported edges
    for (const auto &[root, list] : byRoot) {
      bool anyWrite = false;
      for (const auto *a : list) anyWrite |= a->write;
      if (!anyWrite) continue;
      // Subscript validity for this loop: symbols must be invariant here.
      const auto validFor = [&](const Access &a) {
        if (!a.hasIndex || !a.aff.ok) return false;
        for (const auto &[symRoot, c] : a.aff.sym) {
          if (loopFx.writes.count(symRoot)) return false;
          for (const u32 b : L.blocks)
            for (const auto &in : fa.fn.blocks[b].instrs)
              if (in.op == "store" && in.operands.size() >= 2 &&
                  fa.chase.root(in.operands[1]) == symRoot)
                return false;
        }
        return true;
      };
      for (usize i = 0; i < list.size(); ++i) {
        for (usize j = i + 1; j < list.size(); ++j) {
          const Access *a = list[i], *b = list[j];
          if (!a->write && !b->write) continue;
          // Put a write first.
          const Access *w = a->write ? a : b;
          const Access *x = w == a ? b : a;
          PairResult pr;
          if (validFor(*w) && validFor(*x)) pr = testPair(L, w->aff, x->aff);
          else L.analyzable = false;
          if (pr.kind == PairResult::Kind::Independent) continue;
          if (pr.kind == PairResult::Kind::Assumed) L.analyzable = false;

          ArrayDependence dep;
          dep.array = root;
          dep.carried = pr.carried;
          dep.proven = pr.kind == PairResult::Kind::Dependent;
          dep.distance = pr.distance;
          dep.direction = pr.direction;
          dep.line = w->line >= 0 ? w->line : x->line;
          if (w->write && x->write) dep.kind = DepKind::Output;
          else if (pr.distance && *pr.distance < 0) dep.kind = DepKind::Anti;
          else if (pr.distance && *pr.distance > 0) dep.kind = DepKind::Flow;
          else dep.kind = w->pos <= x->pos ? DepKind::Flow : DepKind::Anti;
          if (dep.distance) dep.distance = *dep.distance < 0 ? -*dep.distance : *dep.distance;

          std::string key = dep.array + "|" + name(dep.kind) + "|" +
                            (dep.carried ? "c" : "i") + "|" +
                            (dep.proven ? "p" : "a") + "|" +
                            (dep.distance ? std::to_string(*dep.distance) : "?");
          if (seen.insert(key).second) L.deps.push_back(std::move(dep));
        }
      }
    }
  }

  void classifyScalars(const std::map<std::string, std::vector<const Instr *>> &loads,
                       const std::map<std::string, std::vector<const Instr *>> &stores,
                       const std::map<std::string, std::vector<const Instr *>> &direct,
                       const CallEffects &loopFx,
                       const std::set<std::string> &loopAllocas,
                       const std::vector<LoopInfo> &allLoops) {
    // Use lists for the reduction check: value id -> consuming instrs
    // inside this loop.
    std::map<std::string, std::vector<const Instr *>> uses;
    for (const u32 b : L.blocks)
      for (const auto &in : fa.fn.blocks[b].instrs)
        for (const auto &op : in.operands)
          if (isValueId(op)) uses[op].push_back(&in);

    for (const auto &[root, sts] : stores) {
      if (!fa.memoryRoot(root)) continue;
      ScalarUse use;
      use.slot = root;
      use.display = displayOf(root);
      use.shared = isGlobal(root);
      use.declaredInLoop = loopAllocas.count(root) > 0;
      use.line = sts.front()->line;
      const std::vector<const Instr *> none;
      const auto loadIt = loads.find(root);
      const auto &lds = loadIt == loads.end() ? none : loadIt->second;
      const auto dirIt = direct.find(root);
      const auto &drs = dirIt == direct.end() ? none : dirIt->second;

      if (fa.ivRoots.count(root)) {
        use.cls = ScalarClass::Induction;
      } else if (loopFx.reads.count(root) || loopFx.writes.count(root) ||
                 loopFx.unknown) {
        use.cls = ScalarClass::Unknown;
      } else if (lds.empty() && drs.empty()) {
        use.cls = ScalarClass::WriteOnly;
      } else if (const auto op = reductionOp(root, sts, lds, drs, uses)) {
        use.cls = ScalarClass::Reduction;
        use.op = *op;
      } else if (upwardExposedRead(root)) {
        use.cls = ScalarClass::Carried;
      } else {
        use.cls = ScalarClass::Privatizable;
      }
      L.scalars.push_back(std::move(use));
    }
    (void)allLoops;
  }

  /// All stores are `root = load(root) op e` chains with a consistent
  /// operator, and every in-loop read of root — load or direct operand
  /// use — feeds only those chains.
  [[nodiscard]] std::optional<std::string>
  reductionOp(const std::string &root, const std::vector<const Instr *> &sts,
              const std::vector<const Instr *> &lds,
              const std::vector<const Instr *> &drs,
              const std::map<std::string, std::vector<const Instr *>> &uses) const {
    std::set<const Instr *> updateOps;
    std::string op;
    const auto opNameOf = [](const Instr &d) -> std::string {
      if (d.op == "add" || d.op == "fadd" || d.op == "sub" || d.op == "fsub")
        return "+";
      if (d.op == "mul" || d.op == "fmul") return "*";
      if (d.op == "call" && !d.operands.empty()) {
        const auto &t = d.operands.front();
        if (t == "@min" || t == "@fmin") return "min";
        if (t == "@max" || t == "@fmax") return "max";
      }
      return {};
    };
    std::set<std::string> loadResults;
    for (const auto *l : lds)
      if (!l->result.empty()) loadResults.insert(l->result);

    for (const auto *s : sts) {
      const Instr *d = fa.chase.def(s->operands[0]);
      if (!d) return std::nullopt;
      const std::string thisOp = opNameOf(*d);
      if (thisOp.empty()) return std::nullopt;
      const usize first = d->op == "call" ? 1 : 0;
      bool usesOldValue = false;
      for (usize i = first; i < d->operands.size(); ++i)
        if (loadResults.count(d->operands[i]) || d->operands[i] == root)
          usesOldValue = true;
      if (!usesOldValue) return std::nullopt;
      if (op.empty()) op = thisOp;
      else if (op != thisOp) return std::nullopt;
      updateOps.insert(d);
    }
    // Every read of the accumulator must feed an update chain only: each
    // load's result, and each direct operand use (which *is* the consuming
    // instruction).
    for (const auto *l : lds) {
      const auto it = uses.find(l->result);
      if (it == uses.end()) continue;
      for (const auto *u : it->second)
        if (!updateOps.count(u)) return std::nullopt;
    }
    for (const auto *d : drs)
      if (!updateOps.count(d)) return std::nullopt;
    return op;
  }

  /// Must-analysis over the loop body: is there a path from the loop entry
  /// to a load of `root` that does not pass a store first?
  [[nodiscard]] bool upwardExposedRead(const std::string &root) const {
    const Function &fn = fa.fn;
    std::map<u32, bool> outStored; // block -> stored on exit (must)
    for (const u32 b : L.blocks) outStored[b] = true;

    const auto transfer = [&](u32 b, bool in, bool *exposed) {
      bool cur = in;
      for (const auto &in2 : fn.blocks[b].instrs) {
        if (in2.op == "load" && !in2.operands.empty()) {
          const auto a = fa.classifyAddr(in2.operands[0]);
          if (!a.isArray && a.root == root && !cur && exposed) *exposed = true;
        } else if (in2.op == "store" && in2.operands.size() >= 2) {
          // The stored *value* is read before the address is written.
          if (in2.operands[0] == root && !cur && exposed) *exposed = true;
          const auto a = fa.classifyAddr(in2.operands[1]);
          if (!a.isArray && a.root == root) cur = true;
        } else if (in2.op != "call") {
          // Direct operand uses of a global scalar read it without a load.
          for (const auto &op2 : in2.operands)
            if (op2 == root && !cur && exposed) *exposed = true;
        }
      }
      return cur;
    };

    bool changed = true;
    while (changed) {
      changed = false;
      for (const u32 b : L.blocks) {
        bool in = b == L.header ? false : true;
        if (b != L.header)
          for (const u32 p : cfg.preds[b]) {
            if (!inLoop(p)) continue;
            in = in && outStored[p];
          }
        const bool out = transfer(b, in, nullptr);
        if (out != outStored[b]) {
          outStored[b] = out;
          changed = true;
        }
      }
    }
    bool exposed = false;
    for (const u32 b : L.blocks) {
      bool in = b == L.header ? false : true;
      if (b != L.header)
        for (const u32 p : cfg.preds[b]) {
          if (!inLoop(p)) continue;
          in = in && outStored[p];
        }
      (void)transfer(b, in, &exposed);
      if (exposed) return true;
    }
    return false;
  }
};

/// Per-loop dependence analysis of one function, consulting `cg` at call
/// sites; `ranges` is the function's slice of the ir::ModuleRanges given to
/// analyzeModule, if any.
FunctionDeps analyzeFunction(const FunctionFacts &facts, const CallGraph &cg,
                             const FunctionRanges *ranges) {
  const Function &fn = facts.function();
  const Cfg &cfg = facts.cfg();
  FunctionDeps out;
  out.function = fn.name;
  out.role = fn.role;
  out.loops = findLoops(facts);
  if (out.loops.empty()) return out;

  // Induction-value bounds for the subscript tests: exact from constant
  // bounds, else a sound over-approximation from the range analysis.
  for (auto &L : out.loops) {
    if (!L.affine) continue;
    if (L.lowerBound && L.tripCount && *L.tripCount >= 1) {
      const i64 lo = *L.lowerBound;
      const i64 last = lo + L.step * (*L.tripCount - 1);
      L.ivMin = std::min(lo, last);
      L.ivMax = std::max(lo, last);
      L.ivExact = true;
    } else if (ranges && !L.inductionSlot.empty()) {
      // Query the induction slot in a body block, where the header's
      // branch condition refines the widened phi back to the loop bounds.
      u32 body = L.header;
      for (const u32 s : cfg.succs[L.header])
        if (s != L.header && L.contains(s)) {
          body = s;
          break;
        }
      const Interval iv = ranges->slotAt(L.inductionSlot, body);
      if (iv.bounded()) {
        L.ivMin = iv.lo;
        L.ivMax = iv.hi;
        L.ivExact = false;
      }
    }
  }

  FunctionAnalyzer fa(fn, cg, ranges);
  for (const auto &L : out.loops)
    if (!L.inductionSlot.empty()) fa.ivRoots.insert(L.inductionSlot);
  for (auto &L : out.loops) {
    LoopAnalyzer la{fa, cfg, L};
    la.run(out.loops);
  }
  return out;
}

} // namespace

ModuleDeps analyzeModule(const ModuleFacts &facts, const ModuleRanges *ranges) {
  ModuleDeps out;
  out.functions.reserve(facts.functions().size());
  for (const auto &ff : facts.functions()) {
    const Function &fn = ff.function();
    if (fn.role == FunctionRole::Runtime) continue;
    auto fd = analyzeFunction(ff, facts.callGraph(),
                              ranges ? ranges->rangesOf(fn.name) : nullptr);
    if (!fd.loops.empty()) out.functions.push_back(std::move(fd));
  }
  return out;
}

} // namespace sv::ir
