#include "lint/depslint.hpp"

#include <map>
#include <set>

#include "support/strings.hpp"

namespace sv::lint {

namespace {

using namespace lang::ast;
using ir::FunctionRole;
using ir::LoopInfo;
using ir::ScalarClass;

/// Strip a clause argument down to its base variable name ("a[0:n]" -> "a").
std::string clauseBase(std::string_view arg) {
  usize end = arg.size();
  for (usize i = 0; i < arg.size(); ++i)
    if (arg[i] == '[' || arg[i] == '(') {
      end = i;
      break;
    }
  auto s = str::trim(arg.substr(0, end));
  while (!s.empty() && (s.front() == '*' || s.front() == '&')) s.remove_prefix(1);
  return std::string(s);
}

/// Unit-wide clause evidence. The lowering erases private clauses entirely
/// and records reductions only as per-region runtime markers, so the AST is
/// the authority on what the programmer already declared. Collection is
/// deliberately unit-wide rather than per-region: over-suppressing can only
/// silence a verdict, never invent one.
struct ClauseSets {
  std::set<std::string> privates;   ///< private/firstprivate/lastprivate/linear
  std::set<std::string> reductions; ///< reduction(op: x) names

  [[nodiscard]] bool covers(const std::string &n) const {
    return privates.count(n) > 0 || reductions.count(n) > 0;
  }
};

bool raceCheckedKind(const Directive &d) {
  if (d.family == "omp") {
    for (const auto &k : d.kind)
      if (k == "parallel" || k == "for" || k == "do" || k == "taskloop" ||
          k == "distribute" || k == "teams" || k == "simd")
        return true;
    return false;
  }
  if (d.family == "acc") {
    bool kernels = false, parallelish = false;
    for (const auto &k : d.kind) {
      if (k == "kernels") kernels = true;
      if (k == "parallel" || k == "loop") parallelish = true;
    }
    return parallelish && !kernels;
  }
  return false;
}

struct UnitEvidence {
  ClauseSets clauses;
  /// Source lines of loops governed by an inline-lowered parallel directive
  /// (OpenACC compute constructs, orphaned omp for/simd): the lowering keeps
  /// those bodies in their enclosing User function, so the loop's source
  /// line is the only way to recognise the parallel context.
  std::set<i32> parallelLoopLines;
  /// acc-governed subset: scalar verdicts are suppressed there (OpenACC
  /// defaults scalars to firstprivate, so an absent clause is not a defect).
  std::set<i32> accLoopLines;

  void collectStmt(const Stmt &s) {
    if (s.kind == StmtKind::Directive && s.directive) {
      const Directive &d = *s.directive;
      for (const auto &c : d.clauses) {
        if (c.name == "private" || c.name == "firstprivate" ||
            c.name == "lastprivate" || c.name == "linear") {
          for (const auto &a : c.arguments) {
            auto n = clauseBase(a);
            if (!n.empty()) clauses.privates.insert(std::move(n));
          }
        } else if (c.name == "reduction" && c.arguments.size() >= 2) {
          for (usize i = 1; i < c.arguments.size(); ++i) {
            auto n = clauseBase(c.arguments[i]);
            if (!n.empty()) clauses.reductions.insert(std::move(n));
          }
        }
      }
      if (raceCheckedKind(d) && !s.children.empty() && s.children[0] &&
          (s.children[0]->kind == StmtKind::For ||
           s.children[0]->kind == StmtKind::ForRange)) {
        parallelLoopLines.insert(static_cast<i32>(s.children[0]->loc.line));
        if (d.family == "acc")
          accLoopLines.insert(static_cast<i32>(s.children[0]->loc.line));
      }
    }
    for (const auto &child : s.children)
      if (child) collectStmt(*child);
    if (s.init) collectStmt(*s.init);
  }

  void collect(const TranslationUnit &unit) {
    for (const auto &fn : unit.functions)
      if (fn.body) collectStmt(*fn.body);
  }
};

// ----------------------------------------------------------- verdict run --

class DepsLinter {
public:
  DepsLinter(const ir::ModuleFacts &facts, const DepsOptions &options)
      : facts_(facts), options_(options) {}

  std::vector<Diagnostic> run() {
    if (options_.unit) evidence_.collect(*options_.unit);
    collectReduceMarkers();
    const ir::ModuleDeps md = ir::analyzeModule(facts_);
    for (const auto &fd : md.functions) visitFunction(fd);
    return em_.take();
  }

private:
  const ir::ModuleFacts &facts_;
  const DepsOptions &options_;
  UnitEvidence evidence_;
  std::set<std::string> reduceMarked_; ///< outlined fns named by __kmpc_reduce
  Emitter em_;

  void collectReduceMarkers() {
    for (const auto &fn : facts_.module().functions)
      for (const auto &b : fn.blocks)
        for (const auto &in : b.instrs)
          if (in.op == "call" && in.operands.size() >= 2 &&
              in.operands[0] == "@__kmpc_reduce")
            reduceMarked_.insert(in.operands[1]);
  }

  void emit(Check check, Severity sev, const ir::FunctionDeps &fd, const LoopInfo &L,
            i32 line, std::string symbol, std::string message) {
    em_.emit(check, sev, lang::Location{L.file, line >= 0 ? line : L.line, 1},
             std::move(symbol), fd.function, std::move(message));
  }

  void visitFunction(const ir::FunctionDeps &fd) {
    const bool outlined = fd.role == FunctionRole::Outlined;
    for (const auto &L : fd.loops) {
      const bool inlineParallel =
          !outlined && evidence_.parallelLoopLines.count(L.line) > 0;
      const bool accLoop = evidence_.accLoopLines.count(L.line) > 0;
      // In an outlined body only the outermost loop is work-shared; inner
      // loops run whole inside one thread and their carried dependences are
      // benign. Inline-lowered directives bind their own loop by line.
      if (outlined && L.depth == 0) {
        raceVerdicts(fd, L, /*scalarsSharedByDefault=*/false);
        scalarVerdicts(fd, L, /*useSharedBit=*/true);
      } else if (inlineParallel) {
        raceVerdicts(fd, L, /*scalarsSharedByDefault=*/!accLoop);
        if (!accLoop) scalarVerdicts(fd, L, /*useSharedBit=*/false);
      } else if (!outlined) {
        if (L.provablyParallel)
          emit(Check::ProvablyParallel, Severity::Note, fd, L, L.line,
               L.inductionName,
               "loop is provably parallel: every array access pair tested "
               "independent and every written scalar is induction, "
               "privatizable, or a reduction — candidate for a parallel "
               "directive");
      }
    }
  }

  [[nodiscard]] bool clauseCovered(const std::string &n) const {
    return options_.unit && evidence_.clauses.covers(n);
  }

  void raceVerdicts(const ir::FunctionDeps &fd, const LoopInfo &L,
                    bool scalarsSharedByDefault) {
    std::set<std::string> reported;
    for (const auto &dep : L.deps) {
      if (!dep.carried || !dep.proven) continue; // assumed edges never fire
      const std::string display =
          dep.array.front() == '@' ? dep.array.substr(1) : dep.array;
      if (clauseCovered(display)) continue;
      if (!reported.insert(dep.array).second) continue;
      std::string msg = "loop-carried " + std::string(ir::name(dep.kind)) +
                        " dependence on '" + display + "'";
      if (dep.distance)
        msg += " (distance " + std::to_string(*dep.distance) + ", direction " +
               ir::name(dep.direction) + ")";
      msg += ": iterations of this parallel loop are not independent";
      emit(Check::LoopCarriedRace, Severity::Error, fd, L, dep.line, display,
           std::move(msg));
    }
    for (const auto &s : L.scalars) {
      if (s.cls != ScalarClass::Carried) continue;
      const bool shared = s.shared || (scalarsSharedByDefault && !s.declaredInLoop);
      if (!shared || clauseCovered(s.display)) continue;
      emit(Check::LoopCarriedRace, Severity::Error, fd, L, s.line, s.display,
           "shared scalar '" + s.display +
               "' is read before it is written each iteration: its value is "
               "carried across iterations of this parallel loop");
    }
  }

  void scalarVerdicts(const ir::FunctionDeps &fd, const LoopInfo &L,
                      bool useSharedBit) {
    for (const auto &s : L.scalars) {
      const bool shared = useSharedBit ? s.shared : !s.declaredInLoop;
      if (!shared || clauseCovered(s.display)) continue;
      if (s.cls == ScalarClass::Reduction) {
        // Without the unit, the fork-path `__kmpc_reduce` marker is the only
        // clause witness — and the offload path emits none, so stay silent
        // for offloaded regions rather than risk a false fire.
        if (reduceMarked_.count(fd.function)) continue;
        if (!options_.unit && !str::startsWith(fd.function, "@omp_outlined")) continue;
        emit(Check::MissedReduction, Severity::Warning, fd, L, s.line, s.display,
             "scalar '" + s.display + "' is only ever updated as '" + s.display +
                 " " + s.op + "= expr' but no reduction(" + s.op + ":" + s.display +
                 ") clause covers it: concurrent updates will be lost");
      } else if (s.cls == ScalarClass::Privatizable) {
        emit(Check::MissedPrivatization, Severity::Warning, fd, L, s.line, s.display,
             "scalar '" + s.display +
                 "' is written before every read inside the loop but is shared: "
                 "privatise it (private(" + s.display + "))");
      }
    }
  }
};

// ------------------------------------------------- whole-array classifier --

/// Bounds of a Fortran section reference: the textual lo/hi expressions, or
/// empty strings for a full `a(:)` slice.
struct SectionShape {
  bool full = true;
  std::string lo, hi;
  [[nodiscard]] bool operator==(const SectionShape &) const = default;
};

std::string exprText(const Expr &e);

std::string exprText(const Expr &e) {
  switch (e.kind) {
  case ExprKind::IntLit:
  case ExprKind::FloatLit:
  case ExprKind::Ident:
    return e.text;
  case ExprKind::Binary:
    if (e.args.size() == 2)
      return "(" + exprText(*e.args[0]) + e.text + exprText(*e.args[1]) + ")";
    break;
  case ExprKind::Unary:
    if (e.args.size() == 1) return e.text + exprText(*e.args[0]);
    break;
  default:
    break;
  }
  return "?";
}

[[nodiscard]] std::optional<SectionShape> sectionOf(const Expr &index) {
  if (index.kind != ExprKind::Range) return std::nullopt;
  SectionShape s;
  const Expr *lo = index.args.size() > 0 ? index.args[0].get() : nullptr;
  const Expr *hi = index.args.size() > 1 ? index.args[1].get() : nullptr;
  if (!lo && !hi) return s; // bare ':'
  s.full = false;
  if (lo) s.lo = exprText(*lo);
  if (hi) s.hi = exprText(*hi);
  if (s.lo.find('?') != std::string::npos || s.hi.find('?') != std::string::npos)
    return std::nullopt;
  return s;
}

[[nodiscard]] bool mentions(const Expr &e, const std::string &n) {
  if (e.kind == ExprKind::Ident && e.text == n) return true;
  for (const auto &a : e.args)
    if (a && mentions(*a, n)) return true;
  return false;
}

/// Scan `e` for references to array `base`; merge the worst classification.
void scanRhs(const Expr &e, const std::string &base,
             const std::optional<SectionShape> &lhsShape, AssignDep &result) {
  const auto worsen = [&](AssignDep d) {
    if (d == AssignDep::Carried) result = AssignDep::Carried;
    else if (d == AssignDep::Unknown && result == AssignDep::Independent)
      result = AssignDep::Unknown;
  };
  if (e.kind == ExprKind::Index && !e.args.empty() &&
      e.args[0]->kind == ExprKind::Ident && e.args[0]->text == base) {
    if (e.args.size() == 2 && e.args[1]) {
      if (const auto shape = sectionOf(*e.args[1])) {
        // Identical section (or both full slices): elementwise aligned.
        if (lhsShape && *shape == *lhsShape) return;
        // A different section of the same array overlaps the write shifted.
        worsen(AssignDep::Carried);
        return;
      }
      if (e.args[1]->kind == ExprKind::IntLit) {
        // Fixed element read while every element is written.
        worsen(AssignDep::Carried);
        return;
      }
    }
    worsen(AssignDep::Unknown); // computed subscripts / multi-index forms
    return;
  }
  if (e.kind == ExprKind::Ident && e.text == base) {
    // Whole-array read `a` (no section): aligned elementwise with a full
    // lhs slice, unanalyzable against a sub-section.
    if (lhsShape && lhsShape->full) return;
    worsen(AssignDep::Unknown);
    return;
  }
  if (e.kind == ExprKind::Call) {
    // args[0] is the callee name; an array passed to a call escapes.
    for (usize i = 1; i < e.args.size(); ++i)
      if (e.args[i] && mentions(*e.args[i], base)) {
        worsen(AssignDep::Unknown);
        return;
      }
    return;
  }
  for (const auto &a : e.args)
    if (a) scanRhs(*a, base, lhsShape, result);
}

} // namespace

AssignDep classifyArrayAssign(const Stmt &s) {
  if (s.kind != StmtKind::ArrayAssign || !s.cond || !s.step) return AssignDep::Unknown;
  const Expr &lhs = *s.cond;
  const Expr *baseExpr =
      lhs.kind == ExprKind::Index && !lhs.args.empty() ? lhs.args[0].get() : &lhs;
  if (!baseExpr || baseExpr->kind != ExprKind::Ident) return AssignDep::Unknown;
  const std::string &base = baseExpr->text;

  std::optional<SectionShape> lhsShape;
  if (lhs.kind == ExprKind::Ident) {
    lhsShape = SectionShape{}; // bare `a = expr`: full
  } else if (lhs.args.size() == 2 && lhs.args[1]) {
    lhsShape = sectionOf(*lhs.args[1]);
  }
  if (!lhsShape) return AssignDep::Unknown; // multi-index or computed section

  AssignDep result = AssignDep::Independent;
  scanRhs(*s.step, base, lhsShape, result);
  return result;
}

std::vector<Diagnostic> runDeps(const ir::ModuleFacts &facts, const DepsOptions &options) {
  return DepsLinter(facts, options).run();
}

} // namespace sv::lint
