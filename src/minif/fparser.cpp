#include "minif/fparser.hpp"

#include <set>

#include "lang/directive.hpp"
#include "support/strings.hpp"

namespace sv::minif {

namespace {

using namespace lang;
using namespace lang::ast;

class FParser {
public:
  FParser(const std::vector<FToken> &toks, std::string fileName, const SourceManager &sm)
      : toks_(toks), sm_(sm) {
    unit_.fileName = std::move(fileName);
  }

  TranslationUnit parse() {
    skipNewlines();
    while (!at(FTokKind::Eof)) {
      parseProgramUnit();
      skipNewlines();
    }
    return std::move(unit_);
  }

private:
  const std::vector<FToken> &toks_;
  const SourceManager &sm_;
  TranslationUnit unit_;
  usize pos_ = 0;
  usize depth_ = 0;
  std::set<std::string> arrayNames_; ///< per-unit: declared array variables

  // ------------------------------------------------------ token helpers --
  [[nodiscard]] const FToken &peek(usize ahead = 0) const {
    const usize i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  [[nodiscard]] bool at(FTokKind k) const { return peek().kind == k; }
  [[nodiscard]] bool atKeyword(std::string_view k) const { return peek().isKeyword(k); }
  [[nodiscard]] bool atPunct(std::string_view p) const { return peek().isPunct(p); }
  [[nodiscard]] Location loc() const { return peek().loc; }

  const FToken &advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool acceptKeyword(std::string_view k) {
    if (atKeyword(k)) {
      advance();
      return true;
    }
    return false;
  }
  bool acceptPunct(std::string_view p) {
    if (atPunct(p)) {
      advance();
      return true;
    }
    return false;
  }
  void expectKeyword(std::string_view k) {
    if (!acceptKeyword(k)) fail("expected '" + std::string(k) + "', got '" + peek().text + "'");
  }
  void expectPunct(std::string_view p) {
    if (!acceptPunct(p)) fail("expected '" + std::string(p) + "', got '" + peek().text + "'");
  }
  std::string expectIdent() {
    if (!at(FTokKind::Ident)) fail("expected identifier, got '" + peek().text + "'");
    return advance().text;
  }
  void expectNewline() {
    if (!at(FTokKind::Newline) && !at(FTokKind::Eof)) fail("expected end of statement");
    skipNewlines();
  }
  void skipNewlines() {
    while (at(FTokKind::Newline)) advance();
  }

  [[noreturn]] void fail(const std::string &what) const {
    throw FrontendError(what, sm_.describe(loc()));
  }

  /// Enter one nesting level; input nested deeper than kMaxNesting fails.
  [[nodiscard]] NestingGuard nest() {
    if (depth_ >= kMaxNesting)
      fail("nesting deeper than " + std::to_string(kMaxNesting) + " levels");
    return NestingGuard(depth_);
  }

  // ----------------------------------------------------- program units --
  void parseProgramUnit() {
    if (atKeyword("module")) {
      advance();
      (void)expectIdent();
      expectNewline();
      // Module-level declarations are rare in the corpus; skip to contains.
      while (!atKeyword("contains") && !atKeyword("end") && !at(FTokKind::Eof)) {
        skipStatement();
      }
      if (acceptKeyword("contains")) {
        expectNewline();
        while (!atKeyword("end") && !at(FTokKind::Eof)) {
          parseProgramUnit();
          skipNewlines();
        }
      }
      expectKeyword("end");
      acceptKeyword("module");
      if (at(FTokKind::Ident)) advance();
      expectNewline();
      return;
    }
    if (atKeyword("program")) {
      advance();
      const std::string name = expectIdent();
      unit_.programName = name;
      FunctionDecl fn;
      fn.name = name;
      fn.returnType = Type::simple("void");
      fn.loc = loc();
      expectNewline();
      fn.body = parseBody({"program"});
      unit_.functions.push_back(std::move(fn));
      return;
    }
    acceptKeyword("pure");
    acceptKeyword("elemental");
    if (atKeyword("subroutine") || atKeyword("function") ||
        ((atKeyword("real") || atKeyword("integer") || atKeyword("logical")) &&
         peekFunctionAfterType())) {
      parseProcedure();
      return;
    }
    if (atKeyword("use") || atKeyword("implicit")) {
      skipStatement();
      return;
    }
    fail("expected a program unit, got '" + peek().text + "'");
  }

  /// `real(8) function foo(...)` style: type prefix before `function`.
  [[nodiscard]] bool peekFunctionAfterType() const {
    usize i = pos_ + 1;
    // optional (kind) after the type keyword
    if (i < toks_.size() && toks_[i].isPunct("(")) {
      int depth = 1;
      ++i;
      while (i < toks_.size() && depth > 0) {
        if (toks_[i].isPunct("(")) ++depth;
        if (toks_[i].isPunct(")")) --depth;
        ++i;
      }
    }
    return i < toks_.size() && toks_[i].isKeyword("function");
  }

  void parseProcedure() {
    Type retType = Type::simple("void");
    if (atKeyword("real") || atKeyword("integer") || atKeyword("logical"))
      retType = parseTypeSpec();
    const bool isFunction = atKeyword("function");
    if (!acceptKeyword("subroutine") && !acceptKeyword("function"))
      fail("expected subroutine/function");
    FunctionDecl fn;
    fn.loc = loc();
    fn.name = expectIdent();
    fn.returnType = isFunction && retType.name == "void" ? Type::simple("double") : retType;
    if (acceptPunct("(")) {
      while (!atPunct(")")) {
        Param p;
        p.name = expectIdent();
        p.type = Type::simple("double"); // refined by the declaration lines
        p.type.reference = true;         // Fortran passes by reference
        fn.params.push_back(std::move(p));
        if (!acceptPunct(",")) break;
      }
      expectPunct(")");
    }
    std::string resultName;
    if (acceptKeyword("result")) {
      expectPunct("(");
      resultName = expectIdent();
      expectPunct(")");
    }
    expectNewline();
    fn.body = parseBody({"subroutine", "function"}, &fn);
    unit_.functions.push_back(std::move(fn));
  }

  // ----------------------------------------------------------- bodies --
  /// Parse statements until `end [<unitKind>]`. When `fn` is given,
  /// declaration statements refine its parameter types.
  StmtPtr parseBody(const std::vector<std::string> &unitKinds, FunctionDecl *fn = nullptr) {
    auto body = Stmt::make(StmtKind::Compound, loc());
    while (!at(FTokKind::Eof)) {
      skipNewlines();
      if (atKeyword("end")) {
        const usize save = pos_;
        advance();
        bool matches = at(FTokKind::Newline) || at(FTokKind::Eof);
        for (const auto &k : unitKinds)
          if (atKeyword(k)) matches = true;
        if (matches) {
          for (const auto &k : unitKinds) acceptKeyword(k);
          if (at(FTokKind::Ident)) advance(); // optional unit name
          expectNewline();
          return body;
        }
        pos_ = save;
      }
      if (at(FTokKind::Eof)) break;
      if (auto s = parseStatement(fn)) body->children.push_back(std::move(s));
    }
    return body;
  }

  void skipStatement() {
    while (!at(FTokKind::Newline) && !at(FTokKind::Eof)) advance();
    skipNewlines();
  }

  // ------------------------------------------------------ declarations --
  [[nodiscard]] Type parseTypeSpec() {
    Type t;
    if (acceptKeyword("integer")) t = Type::simple("int");
    else if (acceptKeyword("logical")) t = Type::simple("bool");
    else if (acceptKeyword("real")) t = Type::simple("double");
    else if (acceptKeyword("character")) t = Type::simple("char");
    else fail("expected a type");
    if (acceptPunct("(")) { // kind spec: (8), (kind=8), (len=*)
      while (!atPunct(")")) advance();
      expectPunct(")");
    }
    return t;
  }

  /// Returns nullptr for statements that do not produce AST (use/implicit).
  StmtPtr parseStatement(FunctionDecl *fn) {
    const auto guard = nest();
    const Location l = loc();
    if (at(FTokKind::Directive)) {
      const FToken &tok = advance();
      expectNewline();
      auto s = Stmt::make(StmtKind::Directive, tok.loc);
      s->directive = parseDirective(tok.text, tok.loc);
      // `!$omp end ...` and barrier-like directives are standalone.
      const auto &kind = s->directive->kind;
      const bool isEnd = !tok.text.empty() && tok.text.find(" end") != std::string::npos;
      const bool standalone = isEnd || (kind.size() == 1 && kind[0] == "barrier");
      if (str::startsWith(tok.text, "omp end") || str::startsWith(tok.text, "acc end"))
        return nullptr; // closing sentinel: structure already captured
      if (!standalone && !at(FTokKind::Eof)) {
        if (auto governed = parseStatement(fn)) s->children.push_back(std::move(governed));
      }
      return s;
    }
    if (atKeyword("use") || atKeyword("implicit")) {
      skipStatement();
      return nullptr;
    }
    if (atKeyword("integer") || atKeyword("real") || atKeyword("logical") ||
        atKeyword("character")) {
      return parseDeclaration(fn);
    }
    if (atKeyword("do")) return parseDo();
    if (atKeyword("if")) return parseIf();
    if (atKeyword("call")) {
      advance();
      auto s = Stmt::make(StmtKind::ExprStmt, l);
      auto call = Expr::make(ExprKind::Call, l);
      call->args.push_back(Expr::make(ExprKind::Ident, l, expectIdent()));
      if (acceptPunct("(")) {
        while (!atPunct(")")) {
          call->args.push_back(parseExpr());
          if (!acceptPunct(",")) break;
        }
        expectPunct(")");
      }
      s->cond = std::move(call);
      expectNewline();
      return s;
    }
    if (atKeyword("allocate") || atKeyword("deallocate")) {
      const std::string which = advance().text;
      auto s = Stmt::make(StmtKind::ExprStmt, l);
      auto call = Expr::make(ExprKind::Call, l);
      call->args.push_back(Expr::make(ExprKind::Ident, l, which));
      expectPunct("(");
      while (!atPunct(")")) {
        call->args.push_back(parseExpr());
        if (!acceptPunct(",")) break;
      }
      expectPunct(")");
      s->cond = std::move(call);
      expectNewline();
      return s;
    }
    if (atKeyword("print") || atKeyword("write")) {
      advance();
      auto s = Stmt::make(StmtKind::ExprStmt, l);
      auto call = Expr::make(ExprKind::Call, l, "");
      call->args.push_back(Expr::make(ExprKind::Ident, l, "print"));
      // consume format spec: `*,` or `(unit, fmt)`
      if (acceptPunct("(")) {
        while (!atPunct(")")) advance();
        expectPunct(")");
      } else if (acceptPunct("*")) {
      }
      acceptPunct(",");
      while (!at(FTokKind::Newline) && !at(FTokKind::Eof)) {
        call->args.push_back(parseExpr());
        if (!acceptPunct(",")) break;
      }
      s->cond = std::move(call);
      expectNewline();
      return s;
    }
    if (acceptKeyword("return")) {
      expectNewline();
      return Stmt::make(StmtKind::Return, l);
    }
    if (acceptKeyword("stop")) {
      while (!at(FTokKind::Newline) && !at(FTokKind::Eof)) advance();
      expectNewline();
      return Stmt::make(StmtKind::Return, l);
    }
    if (acceptKeyword("exit")) {
      expectNewline();
      return Stmt::make(StmtKind::Break, l);
    }
    if (acceptKeyword("cycle")) {
      expectNewline();
      return Stmt::make(StmtKind::Continue, l);
    }
    // Assignment: designator = expr.
    return parseAssignment();
  }

  StmtPtr parseDeclaration(FunctionDecl *fn) {
    const Location l = loc();
    const Type base = parseTypeSpec();
    bool allocatable = false;
    // Attributes: , allocatable , intent(in) , parameter , dimension(:)
    std::vector<ExprPtr> dimensionAttr;
    while (acceptPunct(",")) {
      if (acceptKeyword("allocatable")) {
        allocatable = true;
      } else if (acceptKeyword("parameter")) {
      } else if (acceptKeyword("intent")) {
        expectPunct("(");
        acceptKeyword("in");
        acceptKeyword("out");
        acceptKeyword("inout");
        expectPunct(")");
      } else if (acceptKeyword("dimension")) {
        expectPunct("(");
        dimensionAttr.push_back(parseDimOrColon());
        while (acceptPunct(",")) dimensionAttr.push_back(parseDimOrColon());
        expectPunct(")");
      } else {
        advance(); // unknown attribute keyword
      }
    }
    expectPunct("::");
    auto s = Stmt::make(StmtKind::DeclStmt, l);
    do {
      VarDecl d;
      d.type = base;
      d.name = expectIdent();
      if (acceptPunct("(")) {
        d.arrayDims.push_back(parseDimOrColon());
        while (acceptPunct(",")) d.arrayDims.push_back(parseDimOrColon());
        expectPunct(")");
      } else if (!dimensionAttr.empty()) {
        for (const auto &dim : dimensionAttr) d.arrayDims.push_back(dim ? dim->clone() : nullptr);
      }
      if (acceptPunct("=")) d.init = parseExpr();
      const bool isArray = !d.arrayDims.empty() || allocatable;
      if (isArray) {
        arrayNames_.insert(d.name);
        if (d.arrayDims.empty()) d.arrayDims.push_back(nullptr);
      }
      // Refine a parameter's type instead of declaring a local.
      bool isParam = false;
      if (fn) {
        for (auto &p : fn->params) {
          if (p.name == d.name) {
            p.type = d.type;
            p.type.reference = true; // Fortran by-reference semantics
            if (isArray) p.type.pointer = 1;
            isParam = true;
          }
        }
      }
      if (!isParam) s->decls.push_back(std::move(d));
    } while (acceptPunct(","));
    expectNewline();
    if (s->decls.empty()) return nullptr;
    return s;
  }

  /// A single array dimension: an expression, `:`, or `lo:hi`.
  ExprPtr parseDimOrColon() {
    if (atPunct(":")) {
      advance();
      return nullptr; // deferred shape
    }
    auto e = parseExpr();
    if (acceptPunct(":")) {
      auto range = Expr::make(ExprKind::Range, e->loc);
      range->args.push_back(std::move(e));
      range->args.push_back(atPunct(")") || atPunct(",") ? nullptr : parseExpr());
      return range;
    }
    return e;
  }

  StmtPtr parseDo() {
    const Location l = loc();
    expectKeyword("do");
    if (acceptKeyword("concurrent")) {
      // do concurrent (i = 1:n)
      auto s = Stmt::make(StmtKind::ForRange, l);
      s->loopVar = "<concurrent>"; // refined below
      expectPunct("(");
      s->loopVar = expectIdent();
      expectPunct("=");
      s->cond = parseExpr();
      expectPunct(":");
      s->step = parseExpr();
      expectPunct(")");
      expectNewline();
      s->children.push_back(parseDoBody());
      // Mark the construct: DO CONCURRENT asserts iteration independence —
      // a semantic the tree generators must see. Encoded as a directive.
      auto wrapper = Stmt::make(StmtKind::Directive, l);
      wrapper->directive = lang::ast::Directive{"fortran", {"concurrent"}, {}, l};
      wrapper->children.push_back(std::move(s));
      return wrapper;
    }
    if (acceptKeyword("while")) {
      auto s = Stmt::make(StmtKind::While, l);
      expectPunct("(");
      s->cond = parseExpr();
      expectPunct(")");
      expectNewline();
      s->children.push_back(parseDoBody());
      return s;
    }
    auto s = Stmt::make(StmtKind::ForRange, l);
    s->loopVar = expectIdent();
    expectPunct("=");
    s->cond = parseExpr();
    expectPunct(",");
    s->step = parseExpr();
    if (acceptPunct(",")) (void)parseExpr(); // stride: parsed, not modelled
    expectNewline();
    s->children.push_back(parseDoBody());
    return s;
  }

  StmtPtr parseDoBody() {
    auto body = Stmt::make(StmtKind::Compound, loc());
    while (!at(FTokKind::Eof)) {
      skipNewlines();
      if (atKeyword("enddo")) {
        advance();
        expectNewline();
        return body;
      }
      if (atKeyword("end")) {
        const usize save = pos_;
        advance();
        if (acceptKeyword("do")) {
          expectNewline();
          return body;
        }
        pos_ = save;
      }
      if (auto s = parseStatement(nullptr)) body->children.push_back(std::move(s));
    }
    fail("missing 'end do'");
  }

  StmtPtr parseIf() {
    expectKeyword("if");
    return parseIfAfterKeyword();
  }

  /// Everything after the `if`/`elseif` keyword: `(cond) then ... end if`
  /// (structured) or `(cond) stmt` (one-line). An `elseif` continuation is
  /// parsed as a nested If inside the else block.
  StmtPtr parseIfAfterKeyword() {
    const Location l = loc();
    expectPunct("(");
    auto s = Stmt::make(StmtKind::If, l);
    s->cond = parseExpr();
    expectPunct(")");
    if (!acceptKeyword("then")) {
      // One-line if.
      if (auto st = parseStatement(nullptr)) s->children.push_back(std::move(st));
      return s;
    }
    expectNewline();
    auto thenBlock = Stmt::make(StmtKind::Compound, loc());
    while (true) {
      skipNewlines();
      if (at(FTokKind::Eof)) fail("missing 'end if'");
      if (atKeyword("elseif") || atKeyword("else") || atIfTerminator()) break;
      if (auto st = parseStatement(nullptr)) thenBlock->children.push_back(std::move(st));
    }
    s->children.push_back(std::move(thenBlock));

    if (acceptKeyword("elseif")) {
      // elseif (...) then ...  ==  else { if (...) then ... }
      // The nested call consumes the shared terminating `end if`.
      auto elseBlock = Stmt::make(StmtKind::Compound, loc());
      elseBlock->children.push_back(parseIfAfterKeyword());
      s->children.push_back(std::move(elseBlock));
      return s;
    }
    if (acceptKeyword("else")) {
      expectNewline();
      auto elseBlock = Stmt::make(StmtKind::Compound, loc());
      while (true) {
        skipNewlines();
        if (at(FTokKind::Eof)) fail("missing 'end if'");
        if (atIfTerminator()) break;
        if (auto st = parseStatement(nullptr)) elseBlock->children.push_back(std::move(st));
      }
      s->children.push_back(std::move(elseBlock));
    }
    consumeIfTerminator();
    return s;
  }

  /// True at `endif` or `end if` (without consuming).
  [[nodiscard]] bool atIfTerminator() {
    if (atKeyword("endif")) return true;
    if (atKeyword("end") && peek(1).isKeyword("if")) return true;
    return false;
  }

  void consumeIfTerminator() {
    if (acceptKeyword("endif")) {
      expectNewline();
      return;
    }
    expectKeyword("end");
    expectKeyword("if");
    expectNewline();
  }


  /// Assignment or array assignment. `a(i) = e`, `a(:) = e`, `x = e`.
  StmtPtr parseAssignment() {
    const Location l = loc();
    auto lhs = parseExpr();
    expectPunct("=");
    auto rhs = parseExpr();
    expectNewline();
    const bool isSection = containsRange(*lhs);
    if (isSection) {
      auto s = Stmt::make(StmtKind::ArrayAssign, l);
      s->cond = std::move(lhs);
      s->step = std::move(rhs);
      return s;
    }
    auto s = Stmt::make(StmtKind::ExprStmt, l);
    auto assign = Expr::make(ExprKind::Assign, l, "=");
    assign->args.push_back(std::move(lhs));
    assign->args.push_back(std::move(rhs));
    s->cond = std::move(assign);
    return s;
  }

  static bool containsRange(const Expr &e) {
    if (e.kind == ExprKind::Range) return true;
    for (const auto &a : e.args)
      if (a && containsRange(*a)) return true;
    return false;
  }

  // --------------------------------------------------------- expressions --
  ExprPtr parseExpr() {
    const auto guard = nest();
    return parseOr();
  }

  ExprPtr parseOr() {
    auto lhs = parseAnd();
    while (true) {
      if (atPunct(".") && peek(1).isKeyword("or") && peek(2).isPunct(".")) {
        const Location l = loc();
        advance();
        advance();
        advance();
        auto e = Expr::make(ExprKind::Binary, l, "||");
        e->args.push_back(std::move(lhs));
        e->args.push_back(parseAnd());
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parseAnd() {
    auto lhs = parseNot();
    while (true) {
      if (atPunct(".") && peek(1).isKeyword("and") && peek(2).isPunct(".")) {
        const Location l = loc();
        advance();
        advance();
        advance();
        auto e = Expr::make(ExprKind::Binary, l, "&&");
        e->args.push_back(std::move(lhs));
        e->args.push_back(parseNot());
        lhs = std::move(e);
      } else {
        return lhs;
      }
    }
  }

  ExprPtr parseNot() {
    if (atPunct(".") && peek(1).isKeyword("not") && peek(2).isPunct(".")) {
      const Location l = loc();
      advance();
      advance();
      advance();
      auto e = Expr::make(ExprKind::Unary, l, "!");
      const auto guard = nest();
      e->args.push_back(parseNot());
      return e;
    }
    return parseComparison();
  }

  ExprPtr parseComparison() {
    auto lhs = parseAdditive();
    static const std::string_view ops[] = {"==", "/=", "<=", ">=", "<", ">"};
    for (const auto op : ops) {
      if (atPunct(op)) {
        const Location l = loc();
        advance();
        auto e = Expr::make(ExprKind::Binary, l, op == "/=" ? "!=" : std::string(op));
        e->args.push_back(std::move(lhs));
        e->args.push_back(parseAdditive());
        return e;
      }
    }
    return lhs;
  }

  ExprPtr parseAdditive() {
    auto lhs = parseMultiplicative();
    while (atPunct("+") || atPunct("-")) {
      const Location l = loc();
      const std::string op = advance().text;
      auto e = Expr::make(ExprKind::Binary, l, op);
      e->args.push_back(std::move(lhs));
      e->args.push_back(parseMultiplicative());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parseMultiplicative() {
    auto lhs = parsePower();
    while (atPunct("*") || atPunct("/")) {
      const Location l = loc();
      const std::string op = advance().text;
      auto e = Expr::make(ExprKind::Binary, l, op);
      e->args.push_back(std::move(lhs));
      e->args.push_back(parsePower());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parsePower() {
    auto lhs = parseUnary();
    if (atPunct("**")) {
      const Location l = loc();
      advance();
      auto e = Expr::make(ExprKind::Binary, l, "**");
      e->args.push_back(std::move(lhs));
      const auto guard = nest();
      e->args.push_back(parsePower()); // right associative
      return e;
    }
    return lhs;
  }

  ExprPtr parseUnary() {
    const auto guard = nest();
    if (atPunct("-") || atPunct("+")) {
      const Location l = loc();
      const std::string op = advance().text;
      auto e = Expr::make(ExprKind::Unary, l, op);
      e->args.push_back(parseUnary());
      return e;
    }
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    const Location l = loc();
    if (at(FTokKind::IntLit)) return Expr::make(ExprKind::IntLit, l, advance().text);
    if (at(FTokKind::RealLit)) return Expr::make(ExprKind::FloatLit, l, advance().text);
    if (at(FTokKind::StringLit)) return Expr::make(ExprKind::StringLit, l, advance().text);
    if (atKeyword("true")) {
      advance();
      return Expr::make(ExprKind::BoolLit, l, "true");
    }
    if (atKeyword("false")) {
      advance();
      return Expr::make(ExprKind::BoolLit, l, "false");
    }
    if (atPunct(".")) {
      // .true. / .false.
      if (peek(1).isKeyword("true") || peek(1).isKeyword("false")) {
        advance();
        const std::string v = advance().text;
        expectPunct(".");
        return Expr::make(ExprKind::BoolLit, l, v);
      }
    }
    if (atPunct("(")) {
      advance();
      auto e = parseExpr();
      expectPunct(")");
      return e;
    }
    if (at(FTokKind::Ident) || atKeyword("kind")) {
      const std::string name = advance().text;
      if (atPunct("(")) {
        advance();
        // Array reference or function call; sections make it an Index.
        std::vector<ExprPtr> args;
        bool sawRange = false;
        while (!atPunct(")")) {
          if (atPunct(":")) {
            advance();
            auto r = Expr::make(ExprKind::Range, loc());
            r->args.push_back(nullptr);
            r->args.push_back(nullptr);
            args.push_back(std::move(r));
            sawRange = true;
          } else {
            auto a = parseExpr();
            if (acceptPunct(":")) {
              auto r = Expr::make(ExprKind::Range, a->loc);
              r->args.push_back(std::move(a));
              r->args.push_back(atPunct(")") || atPunct(",") ? nullptr : parseExpr());
              args.push_back(std::move(r));
              sawRange = true;
            } else {
              args.push_back(std::move(a));
            }
          }
          if (!acceptPunct(",")) break;
        }
        expectPunct(")");
        const bool isArray = arrayNames_.count(name) != 0 || sawRange;
        auto e = Expr::make(isArray ? ExprKind::Index : ExprKind::Call, l);
        e->args.push_back(Expr::make(ExprKind::Ident, l, name));
        for (auto &a : args) e->args.push_back(std::move(a));
        if (isArray && e->args.size() == 1) {
          // a() with no index: treat as whole-array reference
          e = Expr::make(ExprKind::Ident, l, name);
        }
        return e;
      }
      return Expr::make(ExprKind::Ident, l, name);
    }
    fail("expected expression, got '" + peek().text + "'");
  }
};

} // namespace

lang::ast::TranslationUnit parseFortran(const std::vector<FToken> &tokens, std::string fileName,
                                        const lang::SourceManager &sm) {
  return FParser(tokens, std::move(fileName), sm).parse();
}

} // namespace sv::minif
