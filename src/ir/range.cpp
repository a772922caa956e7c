#include "ir/range.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "support/strings.hpp"

namespace sv::ir {

// ------------------------------------------------------- interval algebra --

namespace {

constexpr i64 kMin = Interval::kMin;
constexpr i64 kMax = Interval::kMax;

/// Saturating add treating kMin/kMax as -inf/+inf.
[[nodiscard]] i64 satAdd(i64 a, i64 b) {
  if (a == kMin || b == kMin) return kMin;
  if (a == kMax || b == kMax) return kMax;
  i64 r = 0;
  if (__builtin_add_overflow(a, b, &r)) return a > 0 ? kMax : kMin;
  return r;
}

[[nodiscard]] i64 satNeg(i64 a) {
  if (a == kMin) return kMax;
  if (a == kMax) return kMin;
  return -a;
}

/// Saturating multiply with infinity semantics (0 * inf = 0).
[[nodiscard]] i64 satMul(i64 a, i64 b) {
  if (a == 0 || b == 0) return 0;
  const bool negative = (a < 0) != (b < 0);
  if (a == kMin || a == kMax || b == kMin || b == kMax)
    return negative ? kMin : kMax;
  i64 r = 0;
  if (__builtin_mul_overflow(a, b, &r)) return negative ? kMin : kMax;
  return r;
}

[[nodiscard]] std::optional<i64> constVal(const std::string &s) {
  if (!str::startsWith(s, "const:")) return std::nullopt;
  const std::string t = s.substr(6);
  if (t.empty()) return std::nullopt;
  usize i = t.front() == '-' ? 1 : 0;
  if (i >= t.size()) return std::nullopt;
  i64 v = 0;
  for (; i < t.size(); ++i) {
    if (t[i] < '0' || t[i] > '9') return std::nullopt; // float immediate
    v = v * 10 + (t[i] - '0');
  }
  return t.front() == '-' ? -v : v;
}

} // namespace

Interval Interval::join(const Interval &o) const {
  if (bot) return o;
  if (o.bot) return *this;
  return {std::min(lo, o.lo), std::max(hi, o.hi), false};
}

Interval Interval::meet(const Interval &o) const {
  if (bot || o.bot) return none();
  return of(std::max(lo, o.lo), std::min(hi, o.hi));
}

Interval Interval::widen(const Interval &prev) const {
  if (bot || prev.bot) return *this;
  Interval w = *this;
  if (lo < prev.lo) w.lo = kMin;
  if (hi > prev.hi) w.hi = kMax;
  return w;
}

Interval Interval::add(const Interval &o) const {
  if (bot || o.bot) return none();
  return {satAdd(lo, o.lo), satAdd(hi, o.hi), false};
}

Interval Interval::neg() const {
  if (bot) return none();
  return {satNeg(hi), satNeg(lo), false};
}

Interval Interval::sub(const Interval &o) const { return add(o.neg()); }

Interval Interval::mul(const Interval &o) const {
  if (bot || o.bot) return none();
  const i64 c[4] = {satMul(lo, o.lo), satMul(lo, o.hi), satMul(hi, o.lo),
                    satMul(hi, o.hi)};
  return {*std::min_element(c, c + 4), *std::max_element(c, c + 4), false};
}

Interval Interval::sdiv(const Interval &o) const {
  if (bot || o.bot) return none();
  if (o.lo != kMin && o.hi != kMax && !o.contains(0) && lo != kMin && hi != kMax) {
    // Nonzero constant-sign divisor: extremes are corner quotients.
    const i64 c[4] = {lo / o.lo, lo / o.hi, hi / o.lo, hi / o.hi};
    return {*std::min_element(c, c + 4), *std::max_element(c, c + 4), false};
  }
  // |a / b| <= |a| for |b| >= 1 (b == 0 traps; any claim is fine there).
  if (lo != kMin && hi != kMax) {
    const i64 m = std::max(lo < 0 ? satNeg(lo) : lo, hi < 0 ? satNeg(hi) : hi);
    return {satNeg(m), m, false};
  }
  return top();
}

Interval Interval::srem(const Interval &o) const {
  if (bot || o.bot) return none();
  if (o.lo != kMin && o.hi != kMax) {
    // |a % b| <= max|b| - 1, sign follows the dividend (C semantics).
    const i64 m = std::max(o.lo < 0 ? satNeg(o.lo) : o.lo,
                           o.hi < 0 ? satNeg(o.hi) : o.hi);
    if (m > 0) {
      Interval r{satNeg(m - 1), m - 1, false};
      if (lo >= 0) r.lo = 0;
      if (hi <= 0) r.hi = 0;
      // Also never larger in magnitude than the dividend itself.
      if (lo != kMin && hi != kMax) {
        const i64 ma = std::max(lo < 0 ? satNeg(lo) : lo, hi < 0 ? satNeg(hi) : hi);
        r = r.meet({satNeg(ma), ma, false});
      }
      return r.bot ? of(0) : r;
    }
  }
  if (lo != kMin && hi != kMax) {
    const i64 ma = std::max(lo < 0 ? satNeg(lo) : lo, hi < 0 ? satNeg(hi) : hi);
    return {satNeg(ma), ma, false};
  }
  return top();
}

std::string Interval::str() const {
  if (bot) return "none";
  std::string s = "[";
  s += lo == kMin ? "-inf" : std::to_string(lo);
  s += ", ";
  s += hi == kMax ? "inf" : std::to_string(hi);
  s += "]";
  return s;
}

// --------------------------------------------------------- function pass --

namespace {

// The fixpoint sweeps visit every instruction dozens of times; profiling
// showed the string-keyed map lookups behind operand resolution (temps,
// ssa.loadDef) dominating the tier's cost. Everything the sweeps touch is
// therefore compiled once up front — operands parsed to tagged unions,
// locals numbered densely, icmp predicates to an enum — so the hot loop is
// array indexing only.

/// Comparison predicate, compiled once from the icmp operand string.
enum class Pred : u8 { None, Lt, Le, Gt, Ge, Eq, Ne };

[[nodiscard]] Pred predOf(const std::string &p) {
  if (p == "lt") return Pred::Lt;
  if (p == "le") return Pred::Le;
  if (p == "gt") return Pred::Gt;
  if (p == "ge") return Pred::Ge;
  if (p == "eq") return Pred::Eq;
  if (p == "ne") return Pred::Ne;
  return Pred::None;
}

[[nodiscard]] Pred negate(Pred p) {
  switch (p) {
  case Pred::Lt: return Pred::Ge;
  case Pred::Le: return Pred::Gt;
  case Pred::Gt: return Pred::Le;
  case Pred::Ge: return Pred::Lt;
  case Pred::Eq: return Pred::Ne;
  case Pred::Ne: return Pred::Eq;
  case Pred::None: break;
  }
  return Pred::None;
}

[[nodiscard]] Pred swapSides(Pred p) {
  switch (p) {
  case Pred::Lt: return Pred::Gt;
  case Pred::Le: return Pred::Ge;
  case Pred::Gt: return Pred::Lt;
  case Pred::Ge: return Pred::Le;
  default: return p; // eq/ne are symmetric
  }
}

/// One pre-parsed operand. `Top` covers float immediates, labels and
/// anything else the interval domain cannot track.
struct COp {
  enum class Kind : u8 { Const, Top, Arg, Global, Temp } kind = Kind::Top;
  i64 cval = 0;                     ///< Const payload
  u32 idx = 0;                      ///< Arg position or dense temp id
  const std::string *sym = nullptr; ///< Global "@name" (owned by the instr)
};

/// What a condition operand refines: a promoted slot's SSA def (all loads
/// of that def share the narrowed interval) or a plain temp.
struct RefineKey {
  enum class Kind : u8 { None, Def, Temp } kind = Kind::None;
  u32 id = 0; ///< def id or temp id
};

[[nodiscard]] bool sameKey(const RefineKey &a, const RefineKey &b) {
  return a.kind != RefineKey::Kind::None && a.kind == b.kind && a.id == b.id;
}

/// A branch condition carried by one CFG edge: `pred(lhs, rhs)` holds
/// (taken) or fails (!taken) whenever the edge executes. Keys and operands
/// are pre-resolved; the operand strings are kept only for the final
/// refinement freeze (FunctionRanges::refineTemp_ is name-keyed).
struct EdgeCond {
  Pred pred = Pred::None;
  bool taken = true;
  COp lhs, rhs;
  RefineKey lhsKey, rhsKey;
  const std::string *lhsStr = nullptr, *rhsStr = nullptr;
};

/// One compiled instruction: a small opcode plus pre-parsed operands.
struct CInstr {
  enum class Op : u8 {
    StoreDef,   ///< store to a promoted slot; `result` is the SSA def id
    LoadDef,    ///< load mapped by the SSA overlay; `a` is the result temp
    LoadGlobal, ///< load of a module global; `a` is the "@name"
    LoadBool,   ///< i1 load of an untracked slot
    Add, Sub, Mul, Sdiv, Srem, Neg,
    Copy,       ///< sext / zext / trunc
    Icmp,       ///< `pred`, `a`, `b`
    Bool01,     ///< fcmp, i1 and/or: always [0, 1]
    Call,       ///< `callee` when direct, for the summary lookup
    Select,     ///< `a` join `b` (value operands)
    Top,        ///< anything the domain cannot track
  };
  Op op = Op::Top;
  u32 result = 0; ///< temp id; SSA def id for StoreDef
  Pred pred = Pred::None;
  COp a, b;
  const std::string *callee = nullptr;
};

} // namespace

/// The fixpoint engine (friend of FunctionRanges).
struct RangeAnalyzer {
  static constexpr u32 npos = static_cast<u32>(-1);

  const Function &fn;
  const Cfg &cfg;
  const Dominators &doms;
  const SsaFunction &ssa;
  const std::map<std::string, Interval> *symbols;
  FunctionRanges out;

  std::map<std::string, const Instr *> defOf; ///< "%N" -> defining instr
  std::map<std::string, u32> tempIds;         ///< "%N" -> dense temp id
  std::vector<u32> loadDefV;                  ///< temp id -> SSA def | npos
  std::vector<Interval> tempsV;               ///< temp id -> current value
  std::vector<std::vector<CInstr>> code;      ///< compiled, per block
  std::vector<EdgeCond> conds;                ///< compiled edge conditions
  std::map<std::pair<u32, u32>, u32> edgeConds; ///< CFG edge -> conds index
  std::vector<std::vector<u32>> chain; ///< per-block governing cond indices
  std::vector<u32> grow;               ///< per-def widening counter

  RangeAnalyzer(const FunctionFacts &facts, std::vector<Interval> args,
                const std::map<std::string, Interval> *syms)
      : fn(facts.function()), cfg(facts.cfg()), doms(facts.dominators()),
        ssa(facts.ssa()), symbols(syms) {
    out.facts = &facts;
    out.argRanges = std::move(args);
    if (syms) out.symbols_ = *syms;
  }

  /// Number every "%N" that appears as a result or operand.
  void numberTemps() {
    const auto note = [&](const std::string &s) {
      if (!s.empty() && s.front() == '%')
        tempIds.emplace(s, static_cast<u32>(tempIds.size()));
    };
    for (const auto &bl : fn.blocks)
      for (const auto &in : bl.instrs) {
        note(in.result);
        for (const auto &o : in.operands) note(o);
      }
  }

  [[nodiscard]] COp compileOp(const std::string &op) const {
    COp c;
    if (const auto v = constVal(op)) {
      c.kind = COp::Kind::Const;
      c.cval = *v;
      return c;
    }
    if (str::startsWith(op, "const:")) return c; // float immediate: ⊤
    if (str::startsWith(op, "arg:")) {
      c.kind = COp::Kind::Arg;
      c.idx = static_cast<u32>(std::atol(op.c_str() + 4));
      return c;
    }
    if (!op.empty() && op.front() == '@') {
      c.kind = COp::Kind::Global;
      c.sym = &op;
      return c;
    }
    if (!op.empty() && op.front() == '%') {
      c.kind = COp::Kind::Temp;
      c.idx = tempIds.at(op);
      return c;
    }
    return c; // labels and the like: ⊤
  }

  [[nodiscard]] RefineKey keyC(const COp &op) const {
    RefineKey k;
    if (op.kind != COp::Kind::Temp) return k;
    const u32 d = loadDefV[op.idx];
    if (d != npos) {
      k.kind = RefineKey::Kind::Def;
      k.id = d;
    } else {
      k.kind = RefineKey::Kind::Temp;
      k.id = op.idx;
    }
    return k;
  }

  /// Unrefined interval of an operand.
  [[nodiscard]] Interval raw(const COp &op) const {
    switch (op.kind) {
    case COp::Kind::Const: return Interval::of(op.cval);
    case COp::Kind::Arg:
      return op.idx < out.argRanges.size() ? out.argRanges[op.idx]
                                           : Interval::top();
    case COp::Kind::Global:
      if (symbols) {
        const auto it = symbols->find(*op.sym);
        if (it != symbols->end()) return it->second;
      }
      return Interval::top();
    case COp::Kind::Temp: {
      const u32 d = loadDefV[op.idx];
      return d != npos ? out.defRanges[d] : tempsV[op.idx];
    }
    case COp::Kind::Top: break;
    }
    return Interval::top();
  }

  /// The interval `cond` imposes on `who` (one of its two operands), given
  /// the other side's unrefined interval. ⊤ when nothing is learnt.
  [[nodiscard]] Interval constraintOn(const EdgeCond &cond, bool who) const {
    Pred pred = cond.taken ? cond.pred : negate(cond.pred);
    if (pred == Pred::None) return Interval::top();
    if (who) pred = swapSides(pred); // constrain rhs: mirror the predicate
    const Interval other = raw(who ? cond.lhs : cond.rhs);
    if (other.bot) return Interval::top();
    switch (pred) {
    case Pred::Lt:
      return other.hi == kMax ? Interval::top()
                              : Interval{kMin, satAdd(other.hi, -1), false};
    case Pred::Le:
      return other.hi == kMax ? Interval::top()
                              : Interval{kMin, other.hi, false};
    case Pred::Gt:
      return other.lo == kMin ? Interval::top()
                              : Interval{satAdd(other.lo, 1), kMax, false};
    case Pred::Ge:
      return other.lo == kMin ? Interval::top()
                              : Interval{other.lo, kMax, false};
    case Pred::Eq: return other;
    default: return Interval::top(); // ne: can't represent holes
    }
  }

  /// Refined interval of `op` as seen from `block`.
  [[nodiscard]] Interval lookup(const COp &op, u32 block) const {
    Interval v = raw(op);
    const RefineKey k = keyC(op);
    if (k.kind == RefineKey::Kind::None || v.bot) return v;
    for (const u32 ci : chain[block]) {
      const EdgeCond &cond = conds[ci];
      if (sameKey(cond.lhsKey, k)) {
        const Interval m = v.meet(constraintOn(cond, false));
        if (!m.bot) v = m; // contradictions mean a dead path, keep sound
      }
      if (sameKey(cond.rhsKey, k)) {
        const Interval m = v.meet(constraintOn(cond, true));
        if (!m.bot) v = m;
      }
    }
    return v;
  }

  [[nodiscard]] Interval evalCmp(const CInstr &in, u32 b) const {
    const Interval l = lookup(in.a, b), r = lookup(in.b, b);
    if (l.bot || r.bot) return Interval::of(0, 1);
    const bool ltTrue = l.hi != kMax && r.lo != kMin && l.hi < r.lo;
    const bool leTrue = l.hi != kMax && r.lo != kMin && l.hi <= r.lo;
    const bool gtTrue = l.lo != kMin && r.hi != kMax && l.lo > r.hi;
    const bool geTrue = l.lo != kMin && r.hi != kMax && l.lo >= r.hi;
    switch (in.pred) {
    case Pred::Lt:
      return ltTrue ? Interval::of(1) : geTrue ? Interval::of(0) : Interval::of(0, 1);
    case Pred::Le:
      return leTrue ? Interval::of(1) : gtTrue ? Interval::of(0) : Interval::of(0, 1);
    case Pred::Gt:
      return gtTrue ? Interval::of(1) : leTrue ? Interval::of(0) : Interval::of(0, 1);
    case Pred::Ge:
      return geTrue ? Interval::of(1) : ltTrue ? Interval::of(0) : Interval::of(0, 1);
    case Pred::Eq:
      if (l.isConst() && r.isConst()) return Interval::of(l.lo == r.lo ? 1 : 0);
      if (l.meet(r).bot) return Interval::of(0);
      return Interval::of(0, 1);
    case Pred::Ne:
      if (l.isConst() && r.isConst()) return Interval::of(l.lo != r.lo ? 1 : 0);
      if (l.meet(r).bot) return Interval::of(1);
      return Interval::of(0, 1);
    case Pred::None: break;
    }
    return Interval::of(0, 1);
  }

  [[nodiscard]] Interval evalInstr(const CInstr &in, u32 b) const {
    switch (in.op) {
    case CInstr::Op::LoadDef: return lookup(in.a, b);
    case CInstr::Op::LoadGlobal: return raw(in.a);
    case CInstr::Op::LoadBool: return Interval::of(0, 1);
    case CInstr::Op::Add: return lookup(in.a, b).add(lookup(in.b, b));
    case CInstr::Op::Sub: return lookup(in.a, b).sub(lookup(in.b, b));
    case CInstr::Op::Mul: return lookup(in.a, b).mul(lookup(in.b, b));
    case CInstr::Op::Sdiv: return lookup(in.a, b).sdiv(lookup(in.b, b));
    case CInstr::Op::Srem: return lookup(in.a, b).srem(lookup(in.b, b));
    case CInstr::Op::Neg: return lookup(in.a, b).neg();
    case CInstr::Op::Copy: return lookup(in.a, b);
    case CInstr::Op::Icmp: return evalCmp(in, b);
    case CInstr::Op::Bool01: return Interval::of(0, 1);
    case CInstr::Op::Call:
      if (in.callee && symbols) {
        const auto it = symbols->find(*in.callee);
        if (it != symbols->end() && !it->second.bot) return it->second;
      }
      return Interval::top();
    case CInstr::Op::Select: return lookup(in.a, b).join(lookup(in.b, b));
    default: return Interval::top();
    }
  }

  /// Compile every instruction the sweeps evaluate. Must run after the SSA
  /// overlay is built (store targets, load mappings).
  void compile() {
    code.assign(fn.blocks.size(), {});
    for (usize b = 0; b < fn.blocks.size(); ++b) {
      auto &cb = code[b];
      for (const auto &in : fn.blocks[b].instrs) {
        if (in.op == "store") {
          const auto sit = ssa.storeDef.find(&in);
          if (sit == ssa.storeDef.end()) continue;
          CInstr ci;
          ci.op = CInstr::Op::StoreDef;
          ci.result = sit->second;
          ci.a = compileOp(in.operands[0]);
          cb.push_back(ci);
          continue;
        }
        if (in.result.empty() || in.op == "alloca" || in.op == "getelementptr")
          continue;
        CInstr ci;
        ci.result = tempIds.at(in.result);
        const auto opAt = [&](usize i) {
          return i < in.operands.size() ? compileOp(in.operands[i]) : COp{};
        };
        if (in.op == "load") {
          if (in.operands.empty()) {
            ci.op = CInstr::Op::Top;
          } else if (loadDefV[ci.result] != npos) {
            ci.op = CInstr::Op::LoadDef;
            ci.a.kind = COp::Kind::Temp;
            ci.a.idx = ci.result;
          } else if (in.operands[0].front() == '@') {
            ci.op = CInstr::Op::LoadGlobal;
            ci.a = compileOp(in.operands[0]);
          } else if (in.type == "i1") {
            ci.op = CInstr::Op::LoadBool;
          } else {
            ci.op = CInstr::Op::Top; // array element / escaped slot
          }
        } else if (in.op == "add" || in.op == "sub" || in.op == "mul" ||
                   in.op == "sdiv" || in.op == "srem") {
          ci.op = in.op == "add"    ? CInstr::Op::Add
                  : in.op == "sub"  ? CInstr::Op::Sub
                  : in.op == "mul"  ? CInstr::Op::Mul
                  : in.op == "sdiv" ? CInstr::Op::Sdiv
                                    : CInstr::Op::Srem;
          ci.a = opAt(0);
          ci.b = opAt(1);
        } else if (in.op == "neg") {
          ci.op = CInstr::Op::Neg;
          ci.a = opAt(0);
        } else if (in.op == "sext" || in.op == "zext" || in.op == "trunc") {
          ci.op = CInstr::Op::Copy;
          ci.a = opAt(0);
        } else if (in.op == "icmp") {
          if (in.operands.size() < 3) {
            ci.op = CInstr::Op::Bool01;
          } else {
            ci.op = CInstr::Op::Icmp;
            ci.pred = predOf(in.operands[0]);
            ci.a = compileOp(in.operands[1]);
            ci.b = compileOp(in.operands[2]);
          }
        } else if (in.op == "fcmp" ||
                   ((in.op == "and" || in.op == "or") && in.type == "i1")) {
          ci.op = CInstr::Op::Bool01;
        } else if (in.op == "call") {
          ci.op = CInstr::Op::Call;
          if (!in.operands.empty() && !in.operands.front().empty() &&
              in.operands.front().front() == '@')
            ci.callee = &in.operands.front();
        } else if (in.op == "select") { // cond ? a : b
          ci.op = CInstr::Op::Select;
          ci.a = opAt(1);
          ci.b = opAt(2);
        } else {
          ci.op = CInstr::Op::Top;
        }
        cb.push_back(ci);
      }
    }
  }

  void collectEdgeConds() {
    for (usize b = 0; b < fn.blocks.size(); ++b) {
      const auto &bl = fn.blocks[b];
      if (cfg.terminator[b] == Cfg::npos) continue;
      const auto &term = bl.instrs[cfg.terminator[b]];
      if (term.op != "condbr" || term.operands.size() < 3) continue;
      const auto dit = defOf.find(term.operands[0]);
      if (dit == defOf.end()) continue;
      const Instr &cmp = *dit->second;
      if (cmp.op != "icmp" || cmp.operands.size() < 3) continue;
      const auto target = [&](const std::string &lab) -> std::optional<u32> {
        if (!str::startsWith(lab, "label:")) return std::nullopt;
        return cfg.blockOf(lab.substr(6));
      };
      const auto t = target(term.operands[1]);
      const auto f = target(term.operands[2]);
      if (t && f && *t == *f) continue; // degenerate: no information
      EdgeCond c;
      c.pred = predOf(cmp.operands[0]);
      c.lhs = compileOp(cmp.operands[1]);
      c.rhs = compileOp(cmp.operands[2]);
      c.lhsKey = keyC(c.lhs);
      c.rhsKey = keyC(c.rhs);
      c.lhsStr = &cmp.operands[1];
      c.rhsStr = &cmp.operands[2];
      if (t) {
        edgeConds[{static_cast<u32>(b), *t}] = static_cast<u32>(conds.size());
        conds.push_back(c);
      }
      if (f) {
        c.taken = false;
        edgeConds[{static_cast<u32>(b), *f}] = static_cast<u32>(conds.size());
        conds.push_back(c);
      }
    }
  }

  void buildChains() {
    chain.assign(cfg.size(), {});
    for (usize x = 0; x < cfg.size(); ++x) {
      if (!cfg.reachable[x]) continue;
      u32 d = static_cast<u32>(x);
      // Walk up: over a single-predecessor hop the edge's condition
      // governs everything below; at a join, skip to the idom (conditions
      // above it still hold on every path).
      usize guard = 0;
      while (d != 0 && d != Dominators::npos && ++guard <= cfg.size() * 2) {
        std::vector<u32> preds;
        for (const u32 p : cfg.preds[d])
          if (cfg.reachable[p]) preds.push_back(p);
        if (preds.size() == 1) {
          const auto it = edgeConds.find({preds[0], d});
          if (it != edgeConds.end()) chain[x].push_back(it->second);
          d = preds[0];
        } else {
          d = doms.idom[d];
        }
      }
    }
  }

  void run() {
    out.defRanges.assign(ssa.defs.size(), Interval::none());
    grow.assign(ssa.defs.size(), 0);
    for (usize i = 0; i < ssa.defs.size(); ++i)
      if (ssa.defs[i].kind == SsaDef::Kind::Uninit)
        out.defRanges[i] = Interval::top();

    for (const auto &bl : fn.blocks)
      for (const auto &in : bl.instrs)
        if (!in.result.empty()) defOf.emplace(in.result, &in);

    numberTemps();
    tempsV.assign(tempIds.size(), Interval::none());
    loadDefV.assign(tempIds.size(), npos);
    for (const auto &[name, def] : ssa.loadDef)
      loadDefV[tempIds.at(name)] = def;

    collectEdgeConds();
    buildChains();
    compile();

    // Phi ids grouped by block for the sweep.
    std::vector<std::vector<u32>> phisAt(cfg.size());
    for (usize i = 0; i < ssa.defs.size(); ++i)
      if (ssa.defs[i].kind == SsaDef::Kind::Phi)
        phisAt[ssa.defs[i].block].push_back(static_cast<u32>(i));

    const auto sweep = [&](bool widening) {
      bool changed = false;
      for (const u32 b : cfg.rpo) {
        if (!cfg.reachable[b]) continue;
        for (const u32 id : phisAt[b]) {
          Interval next = Interval::none();
          for (const auto &[p, inId] : ssa.defs[id].incoming)
            next = next.join(out.defRanges[inId]);
          if (widening) {
            next = next.join(out.defRanges[id]); // monotone ascent
            if (next != out.defRanges[id] && ++grow[id] >= 3)
              next = next.widen(out.defRanges[id]);
          }
          if (next != out.defRanges[id]) {
            out.defRanges[id] = next;
            changed = true;
          }
        }
        for (const CInstr &ci : code[b]) {
          if (ci.op == CInstr::Op::StoreDef) {
            const Interval v = lookup(ci.a, b);
            if (v != out.defRanges[ci.result]) {
              out.defRanges[ci.result] = v;
              changed = true;
            }
          } else {
            const Interval v = evalInstr(ci, b);
            if (tempsV[ci.result] != v) {
              tempsV[ci.result] = v;
              changed = true;
            }
          }
        }
      }
      return changed;
    };

    usize rounds = 0;
    const usize cap = 16 + 4 * fn.blocks.size();
    while (sweep(/*widening=*/true) && rounds < cap) ++rounds;
    // Narrowing: exact re-evaluation pulls widened bounds back through the
    // branch refinements.
    sweep(/*widening=*/false);
    sweep(/*widening=*/false);

    // Phi-cycle narrowing. A phi cycle with no governing branch on its
    // slot (the accumulator of a nested loop: outer-header phi <->
    // inner-header phi) cannot narrow above — the widened bound re-joins
    // itself through the partner phi. With the store and uninit defs held
    // at their narrowed values the phi subsystem is pure joins, so its
    // least solution is the join of the non-phi defs in each phi's
    // transitive fan-in; meet that in (sound: the closure only discards
    // bounds the cycle manufactured for itself) and let two exact sweeps
    // propagate the recovered precision.
    {
      std::vector<Interval> closure(ssa.defs.size(), Interval::none());
      bool more = true;
      usize guard = 0;
      while (more && ++guard <= ssa.defs.size() + 1) {
        more = false;
        for (usize i = 0; i < ssa.defs.size(); ++i) {
          if (ssa.defs[i].kind != SsaDef::Kind::Phi) continue;
          Interval next = Interval::none();
          for (const auto &[p, inId] : ssa.defs[i].incoming)
            next = next.join(ssa.defs[inId].kind == SsaDef::Kind::Phi
                                 ? closure[inId]
                                 : out.defRanges[inId]);
          if (next != closure[i]) {
            closure[i] = next;
            more = true;
          }
        }
      }
      bool tightened = false;
      for (usize i = 0; i < ssa.defs.size(); ++i) {
        if (ssa.defs[i].kind != SsaDef::Kind::Phi) continue;
        const Interval m = out.defRanges[i].meet(closure[i]);
        if (!m.bot && m != out.defRanges[i]) {
          out.defRanges[i] = m;
          tightened = true;
        }
      }
      if (tightened) {
        sweep(/*widening=*/false);
        sweep(/*widening=*/false);
        rounds += 2;
      }
    }
    out.rounds = rounds + 3;

    // Return range.
    out.returnRange = Interval::none();
    for (usize b = 0; b < fn.blocks.size(); ++b) {
      if (!cfg.reachable[b] || cfg.terminator[b] == Cfg::npos) continue;
      const auto &term = fn.blocks[b].instrs[cfg.terminator[b]];
      if (term.op == "ret" && !term.operands.empty())
        out.returnRange = out.returnRange.join(
            lookup(compileOp(term.operands[0]), static_cast<u32>(b)));
    }

    // Freeze per-block refinement contexts for post-analysis queries.
    for (usize x = 0; x < cfg.size(); ++x) {
      if (!cfg.reachable[x]) continue;
      for (const u32 cix : chain[x])
        for (int side = 0; side < 2; ++side) {
          const EdgeCond &cond = conds[cix];
          const RefineKey k = side == 0 ? cond.lhsKey : cond.rhsKey;
          if (k.kind == RefineKey::Kind::None) continue;
          const Interval c = constraintOn(cond, side == 1);
          if (c.isTop()) continue;
          if (k.kind == RefineKey::Kind::Def) {
            auto &slotMap = out.refineDef_[static_cast<u32>(x)];
            const auto it = slotMap.find(k.id);
            slotMap[k.id] = it == slotMap.end() ? c : it->second.meet(c);
          } else {
            const std::string &name = side == 0 ? *cond.lhsStr : *cond.rhsStr;
            auto &tmpMap = out.refineTemp_[static_cast<u32>(x)];
            const auto it = tmpMap.find(name);
            tmpMap[name] = it == tmpMap.end() ? c : it->second.meet(c);
          }
        }
    }

    // Publish the temp values under their names for valueAt.
    for (const auto &bl : fn.blocks)
      for (const auto &in : bl.instrs) {
        if (in.result.empty() || in.op == "alloca" || in.op == "getelementptr")
          continue;
        out.temps.emplace(in.result, tempsV[tempIds.at(in.result)]);
      }
  }
};

Interval FunctionRanges::valueAt(const std::string &operand, u32 block) const {
  Interval v;
  if (const auto c = constVal(operand)) return Interval::of(*c);
  if (str::startsWith(operand, "const:")) return Interval::top();
  if (str::startsWith(operand, "arg:")) {
    const usize i = static_cast<usize>(std::atol(operand.c_str() + 4));
    return i < argRanges.size() ? argRanges[i] : Interval::top();
  }
  if (!operand.empty() && operand.front() == '@') {
    const auto it = symbols_.find(operand);
    return it == symbols_.end() ? Interval::top() : it->second;
  }
  if (operand.empty() || operand.front() != '%') return Interval::top();

  const auto &loadDef = facts->ssa().loadDef;
  const auto ld = loadDef.find(operand);
  if (ld != loadDef.end()) {
    v = defRanges[ld->second];
    const auto bit = refineDef_.find(block);
    if (bit != refineDef_.end()) {
      const auto it = bit->second.find(ld->second);
      if (it != bit->second.end()) {
        const Interval m = v.meet(it->second);
        if (!m.bot) v = m;
      }
    }
    return v;
  }
  const auto it = temps.find(operand);
  v = it == temps.end() ? Interval::top() : it->second;
  if (v.bot) return Interval::top(); // unreachable def queried from outside
  const auto bit = refineTemp_.find(block);
  if (bit != refineTemp_.end()) {
    const auto rit = bit->second.find(operand);
    if (rit != bit->second.end()) {
      const Interval m = v.meet(rit->second);
      if (!m.bot) v = m;
    }
  }
  return v;
}

Interval FunctionRanges::slotAt(const std::string &slot, u32 block) const {
  const auto &entryDef = facts->ssa().entryDef;
  const auto eit = entryDef.find({block, slot});
  if (eit == entryDef.end()) return Interval::top();
  const u32 id = eit->second;
  Interval v = defRanges[id];
  const auto bit = refineDef_.find(block);
  if (bit != refineDef_.end()) {
    const auto rit = bit->second.find(id);
    if (rit != bit->second.end()) {
      const Interval m = v.meet(rit->second);
      if (!m.bot) v = m;
    }
  }
  return v.bot ? Interval::top() : v;
}

FunctionRanges analyzeRanges(const FunctionFacts &facts, std::vector<Interval> argRanges,
                             const std::map<std::string, Interval> *symbols) {
  RangeAnalyzer ra(facts, std::move(argRanges), symbols);
  ra.run();
  return std::move(ra.out);
}

// ----------------------------------------------------------- module pass --

std::optional<i64> arrayLength(const Function &fn, const std::string &root) {
  if (root.empty() || root.front() != '%') return std::nullopt;
  for (const auto &bl : fn.blocks)
    for (const auto &in : bl.instrs) {
      if (in.op != "alloca" || in.result != root) continue;
      if (in.operands.empty()) return std::nullopt; // scalar slot
      i64 n = 1;
      for (const auto &dim : in.operands) {
        const auto c = constVal(dim);
        if (!c || *c <= 0) return std::nullopt;
        if (n > (i64{1} << 40) / *c) return std::nullopt; // implausible
        n *= *c;
      }
      return n;
    }
  return std::nullopt;
}

ModuleRanges analyzeModuleRanges(const ModuleFacts &facts) {
  ModuleRanges out;
  const Module &m = facts.module();
  const std::set<std::string> &recursive = facts.callGraph().recursive;

  // Symbols that escape as non-callee call operands (outlined bodies given
  // to fork_call, function pointers): their argument ranges stay ⊤.
  std::set<std::string> escaped;
  std::set<std::string> globalEscaped;
  for (const auto &fn : m.functions)
    for (const auto &bl : fn.blocks)
      for (const auto &in : bl.instrs) {
        if (in.op == "call")
          for (usize i = 1; i < in.operands.size(); ++i)
            if (!in.operands[i].empty() && in.operands[i].front() == '@') {
              escaped.insert(in.operands[i]);
              globalEscaped.insert(in.operands[i]);
            }
        if (in.op == "getelementptr" && !in.operands.empty() &&
            !in.operands[0].empty() && in.operands[0].front() == '@')
          globalEscaped.insert(in.operands[0]); // array global: elementwise
      }

  std::map<std::string, std::vector<Interval>> args;
  std::map<std::string, Interval> symbols; // "@fn" returns + "@g" globals

  // Per-function memo: a round re-runs the whole-function fixpoint only
  // when that function's inputs (argument ranges, values of the symbols it
  // references) changed since the round that produced its cached result;
  // otherwise the cached call-site / global-store / return contributions
  // replay. analyzeRanges is deterministic in those inputs, so the replay
  // is exact, and once no function's inputs move the rounds stop early.
  struct FnMemo {
    std::vector<std::string> refs; ///< '@' operands, sorted
    bool valid = false;
    std::vector<Interval> inArgs;
    std::vector<Interval> inSyms; ///< value per refs entry, ⊤ when absent
    FunctionRanges fr;
    std::map<std::string, std::vector<Interval>> callArgs;
    std::map<std::string, Interval> globalStores;
  };
  std::map<std::string, FnMemo> memos;
  for (const auto &fn : m.functions) {
    if (fn.role == FunctionRole::Runtime) continue;
    std::set<std::string> refs;
    for (const auto &bl : fn.blocks)
      for (const auto &in : bl.instrs)
        for (const auto &o : in.operands)
          if (!o.empty() && o.front() == '@') refs.insert(o);
    memos[fn.name].refs.assign(refs.begin(), refs.end());
  }
  const auto symValues = [&](const FnMemo &memo) {
    std::vector<Interval> v;
    v.reserve(memo.refs.size());
    for (const auto &r : memo.refs) {
      const auto it = symbols.find(r);
      v.push_back(it == symbols.end() ? Interval::top() : it->second);
    }
    return v;
  };

  constexpr usize kRounds = 4; // propagates main -> 3 levels of helpers
  for (usize round = 0; round < kRounds; ++round) {
    std::map<std::string, std::vector<Interval>> nextArgs;
    std::map<std::string, Interval> nextSymbols;
    std::map<std::string, Interval> globalStores;

    for (const auto &ff : facts.functions()) {
      const Function &fn = ff.function();
      if (fn.role == FunctionRole::Runtime) continue;
      auto &memo = memos[fn.name];
      std::vector<Interval> a;
      if (const auto it = args.find(fn.name); it != args.end()) a = it->second;
      std::vector<Interval> syms = symValues(memo);
      if (!memo.valid || a != memo.inArgs || syms != memo.inSyms) {
        memo.fr = analyzeRanges(ff, a, &symbols);
        memo.inArgs = std::move(a);
        memo.inSyms = std::move(syms);
        memo.valid = true;
        memo.callArgs.clear();
        memo.globalStores.clear();

        // Harvest call-site argument ranges and global scalar stores.
        const FunctionRanges &fr = memo.fr;
        for (usize b = 0; b < fn.blocks.size(); ++b) {
          if (!ff.cfg().reachable[b]) continue;
          for (const auto &in : fn.blocks[b].instrs) {
            if (in.op == "call" && !in.operands.empty() &&
                !in.operands[0].empty() && in.operands[0].front() == '@') {
              auto &ca = memo.callArgs[in.operands[0]];
              for (usize j = 1; j < in.operands.size(); ++j) {
                const usize idx = j - 1;
                if (ca.size() <= idx) ca.resize(idx + 1, Interval::none());
                ca[idx] = ca[idx].join(
                    fr.valueAt(in.operands[j], static_cast<u32>(b)));
              }
            } else if (in.op == "store" && in.operands.size() >= 2 &&
                       !in.operands[1].empty() &&
                       in.operands[1].front() == '@') {
              const Interval v =
                  fr.valueAt(in.operands[0], static_cast<u32>(b));
              const auto git = memo.globalStores.find(in.operands[1]);
              if (git == memo.globalStores.end())
                memo.globalStores.emplace(in.operands[1], v);
              else
                git->second = git->second.join(v);
            }
          }
        }
      }

      // Merge the (fresh or replayed) contributions.
      for (const auto &[callee, ca] : memo.callArgs) {
        auto &dst = nextArgs[callee];
        if (dst.size() < ca.size()) dst.resize(ca.size(), Interval::none());
        for (usize i = 0; i < ca.size(); ++i) dst[i] = dst[i].join(ca[i]);
      }
      for (const auto &[g, v] : memo.globalStores) {
        const auto git = globalStores.find(g);
        if (git == globalStores.end()) globalStores.emplace(g, v);
        else git->second = git->second.join(v);
      }
      if (!memo.fr.returnRange.bot) nextSymbols[fn.name] = memo.fr.returnRange;
    }

    // Global scalars: initialised to zero, then any stored value anywhere.
    // Escaped globals (address taken, arrays) stay ⊤ by omission.
    for (auto &[g, stored] : globalStores) {
      if (globalEscaped.count(g)) continue;
      nextSymbols[g] = stored.join(Interval::of(0));
    }

    // Clamp recursion and escapees to ⊤ args / ⊤ results.
    for (auto &[name, a] : nextArgs)
      if (recursive.count(name) || escaped.count(name))
        a.assign(a.size(), Interval::top());
    for (const auto &name : recursive) nextSymbols.erase(name);

    const bool settled = nextArgs == args && nextSymbols == symbols;
    if (round + 1 == kRounds || settled) {
      out.argRanges = std::move(nextArgs);
      out.returnRanges = std::move(nextSymbols);
      break;
    }
    args = std::move(nextArgs);
    symbols = std::move(nextSymbols);
  }
  for (auto &[name, memo] : memos)
    out.functions.emplace(name, std::move(memo.fr));
  return out;
}

} // namespace sv::ir
