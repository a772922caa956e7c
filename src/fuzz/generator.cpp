#include "fuzz/generator.hpp"

#include <vector>

#include "fuzz/rng.hpp"
#include "support/strings.hpp"

namespace sv::fuzz {

namespace {

/// Variable kinds the generators type-track. 'i' int, 'd' double, 'b' bool.
struct Var {
  std::string name;
  char type = 'i';
  bool mut = true; ///< false: loop counters / array-length vars, read-only
  /// Loop counter whose bound is the array length — the only names element
  /// reads may index with. A counter bounded by some other literal can
  /// exceed the array (e.g. `for (i < 8)` over a length-4 array).
  bool arrayIdx = false;
};

/// A generated expression string plus whether it is a single primary token
/// (identifier, literal, call, index). Composite operands are always
/// parenthesised; bare identifiers never are — `(v) - x` would trip the
/// MiniC cast heuristic and reparse as a cast of `-x`.
struct Ex {
  std::string text;
  bool atomic = false;
};

[[nodiscard]] std::string paren(const Ex &e) {
  return e.atomic ? e.text : "(" + e.text + ")";
}

struct Helper {
  std::string name;
  char ret = 'd';
  std::vector<char> params;
};

// ------------------------------------------------------------ generator --

/// Shared skeleton for both dialects: tracks scopes, names, helpers and the
/// optional array; the dialect-specific subclass-free switches live in the
/// emit functions below.
struct Gen {
  Rng rng;
  Lang lang;
  bool omp = false;
  std::vector<std::string> lines;
  usize indent = 0;
  std::vector<std::vector<Var>> scopes;
  std::vector<Helper> helpers;
  std::string arrayName;  ///< empty when no array in scope
  std::string arrayLen;   ///< name of the immutable length variable
  usize nameCounter = 0;
  usize stmtBudget = 0;
  /// Calls form a DAG: only the entry unit may call helpers. Set while a
  /// helper body is generated so callStmt() stays silent there — otherwise
  /// helpers could call each other (or themselves) and recurse forever.
  bool inHelper = false;

  explicit Gen(const GenOptions &o) : rng(o.seed ^ (o.lang == Lang::MiniC ? 0xC0DEu : 0xF0DEu)),
                                      lang(o.lang) {}

  [[nodiscard]] bool isC() const { return lang == Lang::MiniC; }

  void emit(const std::string &line) {
    lines.push_back(std::string(indent * 2, ' ') + line);
  }

  [[nodiscard]] std::string fresh(const char *stem) {
    return stem + std::to_string(nameCounter++);
  }

  void push() { scopes.emplace_back(); }
  void pop() { scopes.pop_back(); }
  void declare(std::string name, char type, bool mut = true, bool arrayIdx = false) {
    scopes.back().push_back(Var{std::move(name), type, mut, arrayIdx});
  }

  [[nodiscard]] std::vector<Var> visible(char type, bool needMut = false) const {
    std::vector<Var> out;
    for (const auto &s : scopes)
      for (const auto &v : s)
        if (v.type == type && (!needMut || v.mut)) out.push_back(v);
    return out;
  }

  // ------------------------------------------------------- expressions --

  [[nodiscard]] Ex intLit(i64 lo = 0, i64 hi = 9) {
    return {std::to_string(rng.range(lo, hi)), true};
  }

  [[nodiscard]] Ex doubleLit() {
    static const char *kFrac[] = {"0", "25", "5", "75", "125"};
    return {std::to_string(rng.range(0, 12)) + "." + kFrac[rng.below(5)], true};
  }

  [[nodiscard]] Ex boolLit() {
    const bool v = rng.chance(50);
    if (isC()) return {v ? "true" : "false", true};
    return {v ? ".true." : ".false.", true};
  }

  [[nodiscard]] Ex intLeaf() {
    const auto vars = visible('i');
    if (!vars.empty() && rng.chance(60)) return {rng.pick(vars).name, true};
    return intLit();
  }

  [[nodiscard]] Ex doubleLeaf() {
    const auto vars = visible('d');
    if (!vars.empty() && rng.chance(60)) return {rng.pick(vars).name, true};
    return doubleLit();
  }

  /// Integer expression. `mulBudget` caps multiplications (and Fortran `**`)
  /// so the magnitude stays far below i64 overflow; see generator.hpp.
  [[nodiscard]] Ex intExpr(usize depth, usize mulBudget = 1) {
    if (depth == 0 || rng.chance(35)) return intLeaf();
    const usize roll = rng.below(6);
    if (roll < 2) {
      const Ex a = intExpr(depth - 1, 0), b = intExpr(depth - 1, 0);
      return {paren(a) + (rng.chance(50) ? " + " : " - ") + paren(b), false};
    }
    if (roll == 2 && mulBudget > 0) {
      const Ex a = intExpr(depth - 1, 0), b = intExpr(depth - 1, 0);
      return {paren(a) + " * " + paren(b), false};
    }
    if (roll == 3) { // divide by a non-zero literal
      const Ex a = intExpr(depth - 1, mulBudget);
      return {paren(a) + " / " + std::to_string(rng.range(1, 9)), false};
    }
    if (roll == 4 && isC()) { // modulo a non-zero literal (C spelling)
      const Ex a = intExpr(depth - 1, mulBudget);
      return {paren(a) + " % " + std::to_string(rng.range(2, 9)), false};
    }
    if (roll == 4 && !isC() && mulBudget > 0) { // Fortran power, leaf base
      const Ex base = intLeaf();
      return {paren(base) + " ** " + std::to_string(rng.range(2, 3)), false};
    }
    if (roll == 5) {
      const Ex a = intExpr(depth - 1, mulBudget);
      return {"-" + paren(a), false};
    }
    return intLeaf();
  }

  /// Double expression. Integer operands are allowed (usual promotions);
  /// doubles never flow the other way.
  [[nodiscard]] Ex doubleExpr(usize depth, usize mulBudget = 2) {
    if (depth == 0 || rng.chance(30)) return doubleLeaf();
    const usize roll = rng.below(8);
    if (roll < 2) {
      const Ex a = doubleExpr(depth - 1, mulBudget), b = doubleExpr(depth - 1, 0);
      return {paren(a) + (rng.chance(50) ? " + " : " - ") + paren(b), false};
    }
    if (roll == 2 && mulBudget > 0) {
      const Ex a = doubleExpr(depth - 1, mulBudget - 1), b = doubleExpr(depth - 1, 0);
      return {paren(a) + " * " + paren(b), false};
    }
    if (roll == 3) {
      const Ex a = doubleExpr(depth - 1, mulBudget);
      return {paren(a) + " / " + doubleLit().text, false}; // literal, non-zero by table
    }
    if (roll == 4) { // absolute value via the model-agnostic builtin
      const Ex a = doubleExpr(depth - 1, mulBudget);
      return {(isC() ? "fabs(" : "abs(") + a.text + ")", true};
    }
    if (roll == 5) {
      const Ex a = doubleExpr(depth - 1, 0), b = doubleExpr(depth - 1, 0);
      return {(isC() ? (rng.chance(50) ? "fmin(" : "fmax(") : (rng.chance(50) ? "min(" : "max("))
                  + a.text + ", " + b.text + ")",
              true};
    }
    if (roll == 6) { // promote an int subexpression
      const Ex a = intExpr(depth - 1);
      if (isC() && rng.chance(50)) return {"(double)" + paren(a), false}; // explicit cast
      return a;
    }
    if (roll == 7 && !arrayName.empty()) {
      // Element read, only where a bounded index variable exists.
      const auto idx = loopIndexInScope();
      if (!idx.empty())
        return {arrayName + (isC() ? "[" + idx + "]" : "(" + idx + ")"), true};
    }
    return doubleLeaf();
  }

  /// A loop variable bounded by the array length (safe array index), or "".
  [[nodiscard]] std::string loopIndexInScope() const {
    for (const auto &s : scopes)
      for (const auto &v : s)
        if (v.arrayIdx) return v.name;
    return {};
  }

  [[nodiscard]] Ex boolExpr(usize depth) {
    if (depth == 0 || rng.chance(25)) {
      const auto vars = visible('b');
      if (!vars.empty() && rng.chance(50)) return {rng.pick(vars).name, true};
      return boolLit();
    }
    const usize roll = rng.below(5);
    if (roll < 2) { // comparison
      const bool dbl = rng.chance(50);
      const Ex a = dbl ? doubleExpr(1) : intExpr(1);
      const Ex b = dbl ? doubleExpr(1) : intExpr(1);
      static const char *kCmp[] = {"<", ">", "<=", ">=", "==", "!="};
      std::string op = kCmp[rng.below(6)];
      if (!isC() && op == "!=") op = "/=";
      return {paren(a) + " " + op + " " + paren(b), false};
    }
    if (roll == 2) {
      const Ex a = boolExpr(depth - 1), b = boolExpr(depth - 1);
      if (isC()) return {paren(a) + (rng.chance(50) ? " && " : " || ") + paren(b), false};
      return {paren(a) + (rng.chance(50) ? " .and. " : " .or. ") + paren(b), false};
    }
    if (roll == 3) {
      const Ex a = boolExpr(depth - 1);
      return {(isC() ? "!" : ".not. ") + paren(a), false};
    }
    return boolLit();
  }

  /// Right-hand side for an int store: range-wrapped so stored ints stay in
  /// (-1009, 1009) regardless of loop-carried accumulation.
  [[nodiscard]] std::string wrappedIntRhs() {
    const Ex e = intExpr(2);
    if (isC()) return paren(e) + " % 1009";
    return "mod(" + e.text + ", 1009)";
  }
};

// ----------------------------------------------------------- MiniC body --

struct CGen : Gen {
  using Gen::Gen;

  void declStmt() {
    const char t = "idb"[rng.below(3)];
    const std::string name = fresh("v");
    if (t == 'i') emit("int " + name + " = " + wrappedIntRhs() + ";");
    else if (t == 'd') emit("double " + name + " = " + doubleExpr(2).text + ";");
    else emit("bool " + name + " = " + boolExpr(1).text + ";");
    declare(name, t);
  }

  void assignStmt() {
    for (const char t : {"idb"[rng.below(3)], 'd', 'i'}) {
      const auto vars = visible(t, /*needMut=*/true);
      if (vars.empty()) continue;
      const auto &v = rng.pick(vars);
      if (t == 'i') emit(v.name + " = " + wrappedIntRhs() + ";");
      else if (t == 'b') emit(v.name + " = " + boolExpr(1).text + ";");
      else if (rng.chance(30)) emit(v.name + " += " + doubleExpr(1).text + ";");
      else if (rng.chance(20)) emit(v.name + " *= " + doubleLit().text + ";");
      else emit(v.name + " = " + doubleExpr(2).text + ";");
      return;
    }
  }

  void printStmt() {
    std::string args;
    const usize n = 1 + rng.below(2);
    for (usize i = 0; i < n; ++i) {
      if (i) args += ", ";
      args += rng.chance(70) ? doubleExpr(1).text : intExpr(1).text;
    }
    emit("printf(" + args + ");");
  }

  void ifStmt(usize depth) {
    emit("if (" + boolExpr(2).text + ") {");
    ++indent;
    push();
    block(depth - 1, 1 + rng.below(2));
    pop();
    --indent;
    if (rng.chance(50)) {
      emit("} else {");
      ++indent;
      push();
      block(depth - 1, 1 + rng.below(2));
      pop();
      --indent;
    }
    emit("}");
  }

  void forStmt(usize depth) {
    const std::string i = fresh("i");
    const bool overArray = !arrayName.empty() && rng.chance(50);
    const std::string bound = overArray ? arrayLen : std::to_string(rng.range(2, 8));
    emit("for (int " + i + " = 0; " + i + " < " + bound + "; ++" + i + ") {");
    ++indent;
    push();
    declare(i, 'i', /*mut=*/false, /*arrayIdx=*/overArray);
    if (overArray && rng.chance(70)) emit(arrayName + "[" + i + "] = " + doubleExpr(2).text + ";");
    block(depth - 1, 1 + rng.below(2));
    pop();
    --indent;
    emit("}");
  }

  void whileStmt(usize depth) {
    const std::string w = fresh("w");
    const std::string bound = std::to_string(rng.range(2, 6));
    emit("int " + w + " = 0;");
    emit("while (" + w + " < " + bound + ") {");
    ++indent;
    push();
    declare(w, 'i', /*mut=*/false); // body must not retarget the counter
    block(depth - 1, 1 + rng.below(2));
    emit(w + " = " + w + " + 1;");
    pop();
    --indent;
    emit("}");
  }

  void callStmt() {
    if (helpers.empty() || inHelper) return;
    const auto &h = rng.pick(helpers);
    std::string args;
    for (usize i = 0; i < h.params.size(); ++i) {
      if (i) args += ", ";
      args += h.params[i] == 'i' ? intExpr(1).text : doubleExpr(1).text;
    }
    const std::string name = fresh("v");
    const char t = h.ret;
    emit((t == 'i' ? "int " : "double ") + name + " = " + h.name + "(" + args + ");");
    declare(name, t);
  }

  /// An OpenMP parallel-for region, shaped to be lint-clean: reductions use
  /// the `r += e` pattern, other writes target loop-local declarations,
  /// privatised scalars, or elements indexed by the loop variable.
  void ompRegion() {
    const std::string i = fresh("i");
    const bool overArray = !arrayName.empty() && rng.chance(60);
    const std::string bound = overArray ? arrayLen : std::to_string(rng.range(4, 8));
    const usize kind = rng.below(overArray ? 3 : 2);
    if (kind == 0) { // reduction
      const std::string r = fresh("r");
      emit("double " + r + " = 0.0;");
      declare(r, 'd');
      emit("#pragma omp parallel for reduction(+:" + r + ")");
      emit("for (int " + i + " = 0; " + i + " < " + bound + "; ++" + i + ") {");
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/overArray);
      if (rng.chance(40)) {
        const std::string t = fresh("t");
        emit("double " + t + " = " + doubleExpr(2).text + ";");
        declare(t, 'd');
        emit(r + " += " + t + " + " + doubleExpr(1).text + ";");
      } else {
        emit(r + " += " + doubleExpr(2).text + ";");
      }
      pop();
      --indent;
      emit("}");
      emit("printf(" + r + ");");
    } else if (kind == 1) { // privatised scratch scalar
      const std::string t = fresh("t");
      emit("double " + t + " = 0.0;");
      emit("#pragma omp parallel for private(" + t + ")");
      emit("for (int " + i + " = 0; " + i + " < " + bound + "; ++" + i + ") {");
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/overArray);
      emit(t + " = " + doubleExpr(2).text + ";");
      if (overArray) // only an arrayLen-bounded index may store to the array
        emit(arrayName + "[" + i + "] = " + t + " + " + doubleExpr(1).text + ";");
      else emit(t + " = " + t + " * " + doubleLit().text + ";");
      pop();
      --indent;
      emit("}");
      declare(t, 'd');
    } else { // elementwise map over the array (kind 2 implies overArray)
      emit("#pragma omp parallel for");
      emit("for (int " + i + " = 0; " + i + " < " + bound + "; ++" + i + ") {");
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
      emit(arrayName + "[" + i + "] = " + arrayName + "[" + i + "] + " + doubleExpr(2).text + ";");
      pop();
      --indent;
      emit("}");
    }
  }

  /// The --inject-dep payload: a parallel loop carrying a proven flow
  /// dependence (the syntactic lint tier cannot see it — the write is
  /// element-indexed by the loop variable) plus an unclaused scalar
  /// accumulation, so the dependence tier has a LoopCarriedRace and a
  /// MissedReduction to find in every generated program.
  void depRegion() {
    const std::string i = fresh("i");
    emit("#pragma omp parallel for");
    emit("for (int " + i + " = 1; " + i + " < " + arrayLen + "; ++" + i + ") {");
    ++indent;
    push();
    declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
    emit(arrayName + "[" + i + "] = " + arrayName + "[" + i + " - 1] + " + doubleExpr(1).text +
         ";");
    pop();
    --indent;
    emit("}");
    const std::string r = fresh("r");
    const std::string j = fresh("i");
    emit("double " + r + " = 0.0;");
    emit("#pragma omp parallel for");
    emit("for (int " + j + " = 0; " + j + " < " + arrayLen + "; ++" + j + ") {");
    ++indent;
    push();
    declare(j, 'i', /*mut=*/false, /*arrayIdx=*/true);
    emit(r + " += " + arrayName + "[" + j + "];");
    pop();
    --indent;
    emit("}");
    declare(r, 'd');
    emit("printf(" + r + ");");
  }

  /// The --inject-range payload: a seeded out-of-bounds store and a zero
  /// divisor behind a guard over array *contents*, which the interval
  /// analysis does not track — statically the branch is reachable and the
  /// range tier must flag both defects, while at runtime the guard is
  /// always false so every executing oracle stays clean.
  void rangeRegion() {
    const std::string b = fresh("rb");
    const std::string z = fresh("rz");
    const std::string q = fresh("rq");
    const std::string i = fresh("i");
    emit("double " + b + "[8];");
    emit("int " + z + " = 0;");
    emit("for (int " + i + " = 0; " + i + " < 8; ++" + i + ") {");
    ++indent;
    emit(b + "[" + i + "] = 0.5;");
    --indent;
    emit("}");
    emit("if (" + b + "[0] > 9.5) {");
    ++indent;
    emit(b + "[11] = 1.0;");
    emit("int " + q + " = 7 / " + z + ";");
    emit("printf(" + q + ");");
    --indent;
    emit("}");
  }

  void block(usize depth, usize count) {
    for (usize k = 0; k < count && stmtBudget > 0; ++k) {
      --stmtBudget;
      const usize roll = rng.below(10);
      if (roll < 3) declStmt();
      else if (roll < 5) assignStmt();
      else if (roll == 5) printStmt();
      else if (roll == 6 && depth > 0) ifStmt(depth);
      else if (roll == 7 && depth > 0) forStmt(depth);
      else if (roll == 8 && depth > 0) whileStmt(depth);
      else if (roll == 9) callStmt();
      else assignStmt();
    }
  }

  void helper(const Helper &h) {
    emit(std::string(h.ret == 'i' ? "int " : "double ") + h.name + "(" + [&] {
      std::string ps;
      for (usize i = 0; i < h.params.size(); ++i) {
        if (i) ps += ", ";
        ps += std::string(h.params[i] == 'i' ? "int" : "double") + " p" + std::to_string(i);
      }
      return ps;
    }() + ") {");
    ++indent;
    push();
    for (usize i = 0; i < h.params.size(); ++i)
      declare("p" + std::to_string(i), h.params[i], /*mut=*/false);
    inHelper = true;
    stmtBudget = 3 + rng.below(3);
    block(1, stmtBudget);
    inHelper = false;
    if (h.ret == 'i') emit("return " + wrappedIntRhs() + ";");
    else emit("return " + doubleExpr(2).text + ";");
    pop();
    --indent;
    emit("}");
    emit("");
  }

  [[nodiscard]] std::string run(const GenOptions &o) {
    omp = rng.chance(50);
    const usize nHelpers = rng.below(3);
    for (usize i = 0; i < nHelpers; ++i) {
      Helper h;
      h.name = "f" + std::to_string(i);
      h.ret = rng.chance(60) ? 'd' : 'i';
      const usize np = 1 + rng.below(2);
      for (usize p = 0; p < np; ++p) h.params.push_back(rng.chance(50) ? 'i' : 'd');
      helpers.push_back(h);
    }
    for (const auto &h : helpers) helper(h);

    emit("int main() {");
    ++indent;
    push();
    if (o.injectUndeclaredUse) {
      // The planted generator bug: u_missing is never declared. The VM
      // evaluates it as the string "u_missing", and the arithmetic throws —
      // the differential harness must catch, shrink, and archive this.
      emit("double z_bug = u_missing + 1.5;");
      emit("printf(z_bug);");
    }
    if (rng.chance(65) || o.injectDep) { // the dep payload needs the array
      arrayLen = fresh("n");
      arrayName = fresh("a");
      emit("int " + arrayLen + " = " + std::to_string(rng.range(4, 12)) + ";");
      declare(arrayLen, 'i', /*mut=*/false);
      emit("double* " + arrayName + " = malloc(" + arrayLen + " * sizeof(double));");
      const std::string i = fresh("i");
      emit("for (int " + i + " = 0; " + i + " < " + arrayLen + "; ++" + i + ") {");
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
      emit(arrayName + "[" + i + "] = " + doubleExpr(1).text + ";");
      pop();
      --indent;
      emit("}");
    }
    stmtBudget = 8 + rng.below(8);
    block(2, stmtBudget);
    if (omp) ompRegion();
    if (o.injectDep) depRegion();
    if (o.injectRange) rangeRegion();
    printStmt();
    emit("return 0;");
    pop();
    --indent;
    emit("}");
    return str::join(lines, "\n") + "\n";
  }
};

// ----------------------------------------------------------- MiniF body --

struct FGen : Gen {
  using Gen::Gen;
  std::vector<std::string> declLines; ///< declarations, emitted before stmts
  std::vector<std::string> loopVars;

  [[nodiscard]] std::string newLoopVar() {
    const std::string i = fresh("i");
    declLines.push_back("integer :: " + i);
    return i;
  }

  void declVar(char t, const std::string &name) {
    if (t == 'i') declLines.push_back("integer :: " + name);
    else if (t == 'd') declLines.push_back("real(8) :: " + name);
    else declLines.push_back("logical :: " + name);
  }

  void assignStmt() {
    for (const char t : {"idb"[rng.below(3)], 'd', 'i'}) {
      const auto vars = visible(t, /*needMut=*/true);
      if (vars.empty()) continue;
      const auto &v = rng.pick(vars);
      if (t == 'i') emit(v.name + " = " + wrappedIntRhs());
      else if (t == 'b') emit(v.name + " = " + boolExpr(1).text);
      else emit(v.name + " = " + doubleExpr(2).text);
      return;
    }
  }

  void printStmt() {
    std::string args;
    const usize n = 1 + rng.below(2);
    for (usize i = 0; i < n; ++i) {
      if (i) args += ", ";
      args += rng.chance(70) ? doubleExpr(1).text : intExpr(1).text;
    }
    emit("print *, " + args);
  }

  void ifStmt(usize depth) {
    if (depth == 0 || rng.chance(25)) { // one-line form
      const auto vars = visible('d', /*needMut=*/true);
      if (vars.empty()) return;
      emit("if (" + boolExpr(1).text + ") " + rng.pick(vars).name + " = " +
           doubleExpr(1).text);
      return;
    }
    emit("if (" + boolExpr(2).text + ") then");
    ++indent;
    push();
    block(depth - 1, 1 + rng.below(2));
    pop();
    --indent;
    if (rng.chance(50)) {
      emit("else");
      ++indent;
      push();
      block(depth - 1, 1 + rng.below(2));
      pop();
      --indent;
    }
    emit("end if");
  }

  void doStmt(usize depth) {
    const std::string i = newLoopVar();
    const bool overArray = !arrayName.empty() && rng.chance(50);
    const bool concurrent = rng.chance(15);
    const std::string hi = overArray ? arrayLen : std::to_string(rng.range(2, 8));
    if (concurrent) emit("do concurrent (" + i + " = 1:" + hi + ")");
    else emit("do " + i + " = 1, " + hi);
    ++indent;
    push();
    declare(i, 'i', /*mut=*/false, /*arrayIdx=*/overArray);
    if (overArray && rng.chance(70)) emit(arrayName + "(" + i + ") = " + doubleExpr(2).text);
    if (!concurrent) block(depth - 1, 1 + rng.below(2));
    pop();
    --indent;
    emit("end do");
  }

  void callStmt() {
    if (helpers.empty()) return;
    const auto &h = rng.pick(helpers);
    // First parameter is the inout result slot: pass a distinct mutable
    // double; remaining parameters are read-only and may be any variable
    // (Fortran passes everything by reference, so literals stay out).
    const auto outs = visible('d', /*needMut=*/true);
    if (outs.empty()) return;
    std::string args = rng.pick(outs).name;
    for (usize i = 1; i < h.params.size(); ++i) {
      const auto pool = visible(h.params[i]);
      std::string arg;
      for (const auto &v : pool)
        if (v.name != args.substr(0, args.find(','))) { arg = v.name; break; }
      if (arg.empty()) return;
      args += ", " + arg;
    }
    emit("call " + h.name + "(" + args + ")");
  }

  void ompRegion() {
    const std::string i = newLoopVar();
    const bool overArray = !arrayName.empty();
    const std::string hi = overArray ? arrayLen : std::to_string(rng.range(4, 8));
    if (rng.chance(50)) { // reduction
      const std::string r = fresh("r");
      declVar('d', r);
      emit(r + " = 0.0");
      declare(r, 'd');
      emit("!$omp parallel do reduction(+:" + r + ")");
      emit("do " + i + " = 1, " + hi);
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/overArray);
      emit(r + " = " + r + " + " + doubleExpr(2).text);
      pop();
      --indent;
      emit("end do");
      emit("!$omp end parallel do");
      emit("print *, " + r);
    } else if (overArray) { // elementwise
      emit("!$omp parallel do");
      emit("do " + i + " = 1, " + hi);
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
      emit(arrayName + "(" + i + ") = " + arrayName + "(" + i + ") + " + doubleExpr(2).text);
      pop();
      --indent;
      emit("end do");
      emit("!$omp end parallel do");
    }
  }

  /// Fortran spelling of the --inject-dep payload (see CGen::depRegion).
  void depRegion() {
    const std::string i = newLoopVar();
    emit("!$omp parallel do");
    emit("do " + i + " = 2, " + arrayLen);
    ++indent;
    push();
    declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
    emit(arrayName + "(" + i + ") = " + arrayName + "(" + i + " - 1) + " + doubleExpr(1).text);
    pop();
    --indent;
    emit("end do");
    emit("!$omp end parallel do");
    const std::string r = fresh("r");
    declVar('d', r);
    emit(r + " = 0.0");
    const std::string j = newLoopVar();
    emit("!$omp parallel do");
    emit("do " + j + " = 1, " + arrayLen);
    ++indent;
    push();
    declare(j, 'i', /*mut=*/false, /*arrayIdx=*/true);
    emit(r + " = " + r + " + " + arrayName + "(" + j + ")");
    pop();
    --indent;
    emit("end do");
    emit("!$omp end parallel do");
    declare(r, 'd');
    emit("print *, " + r);
  }

  /// Fortran spelling of the --inject-range payload (see CGen::rangeRegion).
  void rangeRegion() {
    const std::string b = fresh("rb");
    const std::string z = fresh("rz");
    const std::string q = fresh("rq");
    declLines.push_back("real(8) :: " + b + "(8)");
    declLines.push_back("integer :: " + z);
    declLines.push_back("integer :: " + q);
    const std::string i = newLoopVar();
    emit(z + " = 0");
    emit("do " + i + " = 1, 8");
    ++indent;
    emit(b + "(" + i + ") = 0.5");
    --indent;
    emit("end do");
    emit("if (" + b + "(1) > 9.5) then");
    ++indent;
    emit(b + "(12) = 1.0");
    emit(q + " = 7 / " + z);
    emit("print *, " + q);
    --indent;
    emit("end if");
  }

  void block(usize depth, usize count) {
    for (usize k = 0; k < count && stmtBudget > 0; ++k) {
      --stmtBudget;
      const usize roll = rng.below(10);
      if (roll < 3) { // declare-and-assign a new scalar
        const char t = "idb"[rng.below(3)];
        const std::string name = fresh("v");
        declVar(t, name);
        if (t == 'i') emit(name + " = " + wrappedIntRhs());
        else if (t == 'd') emit(name + " = " + doubleExpr(2).text);
        else emit(name + " = " + boolExpr(1).text);
        declare(name, t); // visible once set: the rhs above must not read it
      } else if (roll < 5) assignStmt();
      else if (roll == 5) printStmt();
      else if (roll == 6 && depth > 0) ifStmt(depth);
      else if (roll == 7 && depth > 0) doStmt(depth);
      else if (roll == 8) callStmt();
      else assignStmt();
    }
  }

  void subroutine(const Helper &h) {
    std::string ps;
    for (usize i = 0; i < h.params.size(); ++i) {
      if (i) ps += ", ";
      ps += "p" + std::to_string(i);
    }
    emit("subroutine " + h.name + "(" + ps + ")");
    ++indent;
    push();
    for (usize i = 0; i < h.params.size(); ++i) {
      const char t = h.params[i];
      emit(std::string(t == 'i' ? "integer" : "real(8)") + " :: p" + std::to_string(i));
      declare("p" + std::to_string(i), t, /*mut=*/i == 0);
    }
    const std::string t0 = fresh("t");
    emit("real(8) :: " + t0);
    emit(t0 + " = " + doubleExpr(2).text);
    declare(t0, 'd'); // visible once set: the rhs above must not read it
    if (rng.chance(50)) emit("if (" + boolExpr(1).text + ") " + t0 + " = " + doubleExpr(1).text);
    emit("p0 = " + t0 + " + " + doubleExpr(1).text);
    pop();
    --indent;
    emit("end subroutine " + h.name);
    emit("");
  }

  [[nodiscard]] std::string run(const GenOptions &o) {
    omp = rng.chance(50);
    const usize nHelpers = rng.below(3);
    for (usize i = 0; i < nHelpers; ++i) {
      Helper h;
      h.name = "s" + std::to_string(i);
      h.params.push_back('d'); // inout result first
      const usize extra = rng.below(2);
      for (usize p = 0; p < extra; ++p) h.params.push_back(rng.chance(50) ? 'i' : 'd');
      helpers.push_back(h);
    }
    for (const auto &h : helpers) subroutine(h);

    emit("program fuzzmain");
    ++indent;
    push();
    const usize declMark = lines.size();
    if (o.injectUndeclaredUse) {
      const std::string z = fresh("z");
      declVar('d', z);
      declare(z, 'd');
      emit(z + " = u_missing + 1.5");
      emit("print *, " + z);
    }
    if (rng.chance(65) || o.injectDep) { // the dep payload needs the array
      arrayLen = fresh("n");
      arrayName = fresh("a");
      declLines.push_back("integer :: " + arrayLen);
      declLines.push_back("real(8), allocatable :: " + arrayName + "(:)");
      declare(arrayLen, 'i', /*mut=*/false);
      emit(arrayLen + " = " + std::to_string(rng.range(4, 12)));
      emit("allocate(" + arrayName + "(" + arrayLen + "))");
      const std::string i = newLoopVar();
      emit("do " + i + " = 1, " + arrayLen);
      ++indent;
      push();
      declare(i, 'i', /*mut=*/false, /*arrayIdx=*/true);
      emit(arrayName + "(" + i + ") = " + doubleExpr(1).text);
      pop();
      --indent;
      emit("end do");
      if (rng.chance(30)) emit(arrayName + "(:) = " + doubleLit().text);
    }
    stmtBudget = 8 + rng.below(8);
    block(2, stmtBudget);
    if (omp) ompRegion();
    if (o.injectDep) depRegion();
    if (o.injectRange) rangeRegion();
    printStmt();
    pop();
    --indent;
    emit("end program fuzzmain");

    // Splice the collected declaration lines right after `program`.
    std::vector<std::string> out(lines.begin(), lines.begin() + static_cast<long>(declMark));
    for (const auto &d : declLines) out.push_back("  " + d);
    out.insert(out.end(), lines.begin() + static_cast<long>(declMark), lines.end());
    return str::join(out, "\n") + "\n";
  }
};

} // namespace

GeneratedProgram generate(const GenOptions &options) {
  GeneratedProgram p;
  p.lang = options.lang;
  p.seed = options.seed;
  p.injectRange = options.injectRange;
  // The dep payload is an OpenMP region — it must lower under the OpenMP
  // model for the dependence tier to see a parallel loop.
  if (options.lang == Lang::MiniC) {
    CGen g(options);
    p.source = g.run(options);
    p.model = g.omp || options.injectDep ? "omp" : "serial";
    p.fileName = "fuzz.cpp";
  } else {
    FGen g(options);
    p.source = g.run(options);
    p.model = g.omp || options.injectDep ? "omp" : "serial";
    p.fileName = "fuzz.f90";
  }
  return p;
}

} // namespace sv::fuzz
