#include "minic/parser.hpp"

#include "lang/directive.hpp"
#include "support/strings.hpp"

namespace sv::minic {

namespace {

using namespace lang;
using namespace lang::ast;

class Parser {
public:
  Parser(const std::vector<Token> &tokens, std::string fileName, const SourceManager &sm)
      : toks_(tokens), sm_(sm) {
    unit_.fileName = std::move(fileName);
  }

  TranslationUnit parse() {
    while (!at(TokKind::Eof)) parseTopLevel("");
    return std::move(unit_);
  }

private:
  const std::vector<Token> &toks_;
  const SourceManager &sm_;
  TranslationUnit unit_;
  usize pos_ = 0;
  usize depth_ = 0;

  // ------------------------------------------------------ token helpers --
  [[nodiscard]] const Token &peek(usize ahead = 0) const {
    const usize i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  [[nodiscard]] bool at(TokKind k) const { return peek().kind == k; }
  [[nodiscard]] bool atPunct(std::string_view p) const { return peek().isPunct(p); }
  [[nodiscard]] bool atKeyword(std::string_view k) const { return peek().isKeyword(k); }
  [[nodiscard]] Location loc() const { return peek().loc; }

  const Token &advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  bool acceptPunct(std::string_view p) {
    if (atPunct(p)) {
      advance();
      return true;
    }
    return false;
  }
  bool acceptKeyword(std::string_view k) {
    if (atKeyword(k)) {
      advance();
      return true;
    }
    return false;
  }

  void expectPunct(std::string_view p) {
    if (!acceptPunct(p)) fail(std::string("expected '") + std::string(p) + "', got '" +
                              peek().text + "'");
  }
  void expectKeyword(std::string_view k) {
    if (!acceptKeyword(k)) fail(std::string("expected '") + std::string(k) + "'");
  }
  std::string expectIdent() {
    if (!at(TokKind::Ident)) fail("expected identifier, got '" + peek().text + "'");
    return advance().text;
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

  // --------------------------------------------------------- type parse --
  /// Type keywords that may begin a declaration.
  [[nodiscard]] bool atTypeKeyword() const {
    return atKeyword("void") || atKeyword("int") || atKeyword("long") || atKeyword("unsigned") ||
           atKeyword("float") || atKeyword("double") || atKeyword("bool") || atKeyword("char") ||
           atKeyword("auto");
  }

  /// Try to parse a type at the current position. On failure, restores the
  /// cursor and returns nullopt. A type is:
  ///   'const'? name('::'name)* ('<' typeArgs '>')? '*'* '&'? 'const'?
  [[nodiscard]] std::optional<Type> tryParseType() {
    const usize save = pos_;
    Type t;
    if (acceptKeyword("const")) t.isConst = true;
    if (atTypeKeyword()) {
      t.name = advance().text;
      // `unsigned int`, `long long`, ...
      while (atTypeKeyword()) t.name += " " + advance().text;
    } else if (at(TokKind::Ident)) {
      t.name = advance().text;
      while (atPunct("::")) {
        if (!peek(1).is(TokKind::Ident)) break;
        advance();
        t.name += "::" + advance().text;
      }
    } else {
      pos_ = save;
      return std::nullopt;
    }
    // Template arguments.
    if (atPunct("<")) {
      const auto guard = nest();
      const usize beforeArgs = pos_;
      advance();
      std::vector<Type> args;
      bool ok = true;
      while (!atPunct(">")) {
        if (at(TokKind::IntLit)) {
          args.push_back(Type::simple(advance().text));
        } else if (acceptKeyword("class") || acceptKeyword("typename")) {
          // SYCL kernel-name style template arg: `class init_kernel`.
          args.push_back(Type::simple("class " + expectIdent()));
        } else if (auto inner = tryParseType()) {
          args.push_back(std::move(*inner));
        } else {
          ok = false;
          break;
        }
        if (!acceptPunct(",")) break;
      }
      if (ok && atPunct(">")) {
        advance();
        t.args = std::move(args);
      } else {
        pos_ = beforeArgs; // not template args after all (e.g. comparison)
      }
    }
    while (atPunct("*")) {
      advance();
      ++t.pointer;
    }
    if (acceptPunct("&")) t.reference = true;
    if (acceptKeyword("const")) t.isConst = true;
    return t;
  }

  // ------------------------------------------------------- declarations --
  [[nodiscard]] std::vector<std::string> parseAttributes() {
    std::vector<std::string> attrs;
    while (true) {
      if (at(TokKind::Ident) && str::startsWith(peek().text, "__") &&
          (peek().text == "__global__" || peek().text == "__device__" ||
           peek().text == "__host__" || peek().text == "__constant__" ||
           peek().text == "__shared__" || peek().text == "__forceinline__")) {
        attrs.push_back(advance().text);
      } else if (atKeyword("static") || atKeyword("inline") || atKeyword("constexpr") ||
                 atKeyword("extern")) {
        attrs.push_back(advance().text);
      } else {
        break;
      }
    }
    return attrs;
  }

  void parseTopLevel(const std::string &nsPrefix) {
    // Pragmas at file scope (e.g. `#pragma omp declare target`).
    if (at(TokKind::Pragma)) {
      const Token &tok = advance();
      // Record as a global "directive function" marker: we attach it to the
      // next function by storing it as an attribute-like pragma. For
      // simplicity, file-scope pragmas become attributes on the following
      // function declaration.
      pendingPragmas_.push_back(tok);
      return;
    }
    if (acceptKeyword("namespace")) {
      const std::string name = expectIdent();
      expectPunct("{");
      const std::string inner = nsPrefix.empty() ? name : nsPrefix + "::" + name;
      const auto guard = nest();
      while (!atPunct("}") && !at(TokKind::Eof)) parseTopLevel(inner);
      expectPunct("}");
      acceptPunct(";");
      return;
    }
    if (atKeyword("using")) {
      // `using namespace x;` or `using alias = type;` — consume to ';'.
      while (!atPunct(";") && !at(TokKind::Eof)) advance();
      expectPunct(";");
      return;
    }
    if (atKeyword("struct") || atKeyword("class")) {
      parseStruct(nsPrefix);
      return;
    }
    std::vector<std::string> templateParams;
    if (acceptKeyword("template")) {
      expectPunct("<");
      while (!atPunct(">")) {
        if (!acceptKeyword("typename") && !acceptKeyword("class"))
          fail("expected typename/class in template parameter list");
        templateParams.push_back(expectIdent());
        if (!acceptPunct(",")) break;
      }
      expectPunct(">");
    }
    auto attrs = parseAttributes();
    const Location declLoc = loc();
    auto type = tryParseType();
    if (!type) fail("expected a declaration");
    // Attributes may also follow the type in CUDA style (rare) — skip.
    const std::string name = parseQualifiedName();
    if (atPunct("(")) {
      FunctionDecl fn;
      fn.name = nsPrefix.empty() ? name : nsPrefix + "::" + name;
      fn.returnType = std::move(*type);
      fn.params = parseParamList();
      fn.attributes = std::move(attrs);
      fn.templateParams = std::move(templateParams);
      fn.loc = declLoc;
      for (const auto &p : pendingPragmas_) fn.attributes.push_back("#pragma " + p.text);
      pendingPragmas_.clear();
      if (atPunct("{")) {
        fn.body = parseCompound();
      } else {
        expectPunct(";");
      }
      unit_.functions.push_back(std::move(fn));
      return;
    }
    // Global variable(s).
    pendingPragmas_.clear();
    GlobalVarDecl g;
    g.attributes = std::move(attrs);
    g.loc = declLoc;
    g.var = parseVarTail(*type, name);
    unit_.globals.push_back(std::move(g));
    while (acceptPunct(",")) {
      GlobalVarDecl more;
      more.attributes = unit_.globals.back().attributes;
      more.loc = loc();
      more.var = parseVarTail(*type, parseQualifiedName());
      unit_.globals.push_back(std::move(more));
    }
    expectPunct(";");
  }

  [[nodiscard]] std::string parseQualifiedName() {
    std::string name = expectIdent();
    while (atPunct("::") && peek(1).is(TokKind::Ident)) {
      advance();
      name += "::" + advance().text;
    }
    return name;
  }

  /// After `type name`, parse array dims and initialiser (not the ';').
  [[nodiscard]] VarDecl parseVarTail(Type type, std::string name) {
    VarDecl d;
    d.type = std::move(type);
    d.name = std::move(name);
    while (acceptPunct("[")) {
      if (!atPunct("]")) d.arrayDims.push_back(parseExpr());
      else d.arrayDims.push_back(nullptr);
      expectPunct("]");
    }
    if (acceptPunct("=")) {
      d.init = parseAssignment();
    } else if (atPunct("(") || atPunct("{")) {
      // Constructor-style initialisation: treat as a Call to the type name.
      const bool brace = atPunct("{");
      advance();
      auto call = Expr::make(ExprKind::Call, loc());
      call->args.push_back(Expr::make(ExprKind::Ident, loc(), d.type.str()));
      const std::string_view close = brace ? "}" : ")";
      while (!atPunct(close)) {
        call->args.push_back(parseAssignment());
        if (!acceptPunct(",")) break;
      }
      expectPunct(close);
      d.init = std::move(call);
    }
    return d;
  }

  void parseStruct(const std::string &nsPrefix) {
    advance(); // struct/class
    StructDecl s;
    s.loc = loc();
    s.name = expectIdent();
    if (!nsPrefix.empty()) s.name = nsPrefix + "::" + s.name;
    if (acceptPunct(";")) { // forward declaration
      unit_.structs.push_back(std::move(s));
      return;
    }
    expectPunct("{");
    while (!atPunct("}")) {
      if (acceptKeyword("public") || acceptKeyword("private")) {
        expectPunct(":");
        continue;
      }
      auto type = tryParseType();
      if (!type) fail("expected field declaration in struct " + s.name);
      do {
        Param f;
        f.type = *type;
        f.name = expectIdent();
        while (acceptPunct("[")) { // fixed-size array field: record, drop dims
          if (!atPunct("]")) (void)parseExpr();
          expectPunct("]");
        }
        if (acceptPunct("=")) f.defaultValue = parseAssignment();
        s.fields.push_back(std::move(f));
      } while (acceptPunct(","));
      expectPunct(";");
    }
    expectPunct("}");
    expectPunct(";");
    unit_.structs.push_back(std::move(s));
  }

  [[nodiscard]] std::vector<Param> parseParamList() {
    expectPunct("(");
    std::vector<Param> params;
    while (!atPunct(")")) {
      Param p;
      auto type = tryParseType();
      if (!type) fail("expected parameter type");
      p.type = std::move(*type);
      if (at(TokKind::Ident)) p.name = advance().text;
      if (acceptPunct("=")) p.defaultValue = parseAssignment();
      params.push_back(std::move(p));
      if (!acceptPunct(",")) break;
    }
    expectPunct(")");
    return params;
  }

  // ---------------------------------------------------------- statements --
  [[nodiscard]] StmtPtr parseCompound() {
    const Location l = loc();
    expectPunct("{");
    auto s = Stmt::make(StmtKind::Compound, l);
    while (!atPunct("}") && !at(TokKind::Eof)) s->children.push_back(parseStmt());
    expectPunct("}");
    return s;
  }

  [[nodiscard]] StmtPtr parseStmt() {
    const auto guard = nest();
    const Location l = loc();
    if (at(TokKind::Pragma)) {
      const Token &tok = advance();
      auto s = Stmt::make(StmtKind::Directive, tok.loc);
      s->directive = parseDirective(tok.text, tok.loc);
      // OpenMP/OpenACC structured directives govern the next statement;
      // standalone ones (barrier, taskwait, flush) do not.
      const auto &kind = s->directive->kind;
      const auto has = [&](std::string_view w) {
        for (const auto &k : kind)
          if (k == w) return true;
        return false;
      };
      // Standalone directives: barriers and the unstructured data-mapping
      // forms (`target enter data`, `target exit data`, `target update`).
      const bool standalone = (!kind.empty() && (kind[0] == "barrier" || kind[0] == "taskwait" ||
                                                 kind[0] == "flush")) ||
                              has("enter") || has("exit") || has("update");
      if (!standalone && !atPunct("}") && !at(TokKind::Eof))
        s->children.push_back(parseStmt());
      return s;
    }
    if (atPunct("{")) return parseCompound();
    if (acceptKeyword("if")) {
      auto s = Stmt::make(StmtKind::If, l);
      expectPunct("(");
      s->cond = parseExpr();
      expectPunct(")");
      s->children.push_back(parseStmt());
      if (acceptKeyword("else")) s->children.push_back(parseStmt());
      return s;
    }
    if (acceptKeyword("for")) {
      auto s = Stmt::make(StmtKind::For, l);
      expectPunct("(");
      if (!acceptPunct(";")) {
        s->init = parseDeclOrExprStmt();
      }
      if (!atPunct(";")) s->cond = parseExpr();
      expectPunct(";");
      if (!atPunct(")")) s->step = parseExpr();
      expectPunct(")");
      s->children.push_back(parseStmt());
      return s;
    }
    if (acceptKeyword("while")) {
      auto s = Stmt::make(StmtKind::While, l);
      expectPunct("(");
      s->cond = parseExpr();
      expectPunct(")");
      s->children.push_back(parseStmt());
      return s;
    }
    if (acceptKeyword("do")) {
      auto s = Stmt::make(StmtKind::DoWhile, l);
      s->children.push_back(parseStmt());
      expectKeyword("while");
      expectPunct("(");
      s->cond = parseExpr();
      expectPunct(")");
      expectPunct(";");
      return s;
    }
    if (acceptKeyword("return")) {
      auto s = Stmt::make(StmtKind::Return, l);
      if (!atPunct(";")) s->cond = parseExpr();
      expectPunct(";");
      return s;
    }
    if (acceptKeyword("break")) {
      expectPunct(";");
      return Stmt::make(StmtKind::Break, l);
    }
    if (acceptKeyword("continue")) {
      expectPunct(";");
      return Stmt::make(StmtKind::Continue, l);
    }
    if (acceptPunct(";")) return Stmt::make(StmtKind::Empty, l);
    auto s = parseDeclOrExprStmt();
    return s;
  }

  /// Parse either a declaration statement or an expression statement,
  /// consuming the trailing ';'.
  [[nodiscard]] StmtPtr parseDeclOrExprStmt() {
    const Location l = loc();
    if (looksLikeDecl()) {
      auto s = Stmt::make(StmtKind::DeclStmt, l);
      auto type = tryParseType();
      SV_CHECK(type.has_value(), "looksLikeDecl/ tryParseType disagree");
      s->decls.push_back(parseVarTail(*type, expectIdent()));
      while (acceptPunct(",")) {
        // Subsequent declarators share the base type but may add '*'/'&'.
        Type t2 = *type;
        while (atPunct("*")) {
          advance();
          ++t2.pointer;
        }
        if (acceptPunct("&")) t2.reference = true;
        s->decls.push_back(parseVarTail(t2, expectIdent()));
      }
      expectPunct(";");
      return s;
    }
    auto s = Stmt::make(StmtKind::ExprStmt, l);
    s->cond = parseExpr();
    expectPunct(";");
    return s;
  }

  /// Declaration heuristic: try-parse a type followed by an identifier that
  /// is then followed by a declarator continuation (=, ;, ',', '[', '(' or
  /// '{' ctor-init). Restores the cursor either way.
  [[nodiscard]] bool looksLikeDecl() {
    if (atKeyword("const") || atTypeKeyword()) return true;
    const usize save = pos_;
    bool result = false;
    if (auto type = tryParseType()) {
      if (at(TokKind::Ident)) {
        const TokKind follow = peek(1).kind;
        const std::string &ft = peek(1).text;
        if (follow == TokKind::Punct &&
            (ft == "=" || ft == ";" || ft == "," || ft == "[" || ft == "{" || ft == "(")) {
          // `foo bar(...)` could be a call-looking decl `sycl::queue q(dev)`.
          // A plain function call `foo(bar)` never has two identifiers in a
          // row, so ident-ident is decisive.
          result = true;
        }
      }
    }
    pos_ = save;
    return result;
  }

  // --------------------------------------------------------- expressions --
  [[nodiscard]] ExprPtr parseExpr() {
    const auto guard = nest();
    auto e = parseAssignment();
    // Comma operator: fold into a Binary "," chain (rare; for-steps).
    while (atPunct(",")) {
      const Location l = loc();
      advance();
      auto rhs = parseAssignment();
      auto bin = Expr::make(ExprKind::Binary, l, ",");
      bin->args.push_back(std::move(e));
      bin->args.push_back(std::move(rhs));
      e = std::move(bin);
    }
    return e;
  }

  [[nodiscard]] ExprPtr parseAssignment() {
    auto lhs = parseConditional();
    static const std::string_view ops[] = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};
    for (const auto op : ops) {
      if (atPunct(op)) {
        const Location l = loc();
        advance();
        const auto guard = nest();
        auto rhs = parseAssignment(); // right-associative
        auto e = Expr::make(ExprKind::Assign, l, std::string(op));
        e->args.push_back(std::move(lhs));
        e->args.push_back(std::move(rhs));
        return e;
      }
    }
    return lhs;
  }

  [[nodiscard]] ExprPtr parseConditional() {
    auto cond = parseBinary(0);
    if (atPunct("?")) {
      const Location l = loc();
      advance();
      const auto guard = nest();
      auto thenE = parseAssignment();
      expectPunct(":");
      auto elseE = parseAssignment();
      auto e = Expr::make(ExprKind::Conditional, l);
      e->args.push_back(std::move(cond));
      e->args.push_back(std::move(thenE));
      e->args.push_back(std::move(elseE));
      return e;
    }
    return cond;
  }

  struct OpLevel {
    std::vector<std::string_view> ops;
  };
  [[nodiscard]] static const std::vector<OpLevel> &precedence() {
    static const std::vector<OpLevel> kLevels = {
        {{"||"}},
        {{"&&"}},
        {{"|"}},
        {{"^"}},
        {{"&"}},
        {{"==", "!="}},
        {{"<", ">", "<=", ">="}},
        {{"<<", ">>"}},
        {{"+", "-"}},
        {{"*", "/", "%"}},
    };
    return kLevels;
  }

  [[nodiscard]] ExprPtr parseBinary(usize level) {
    if (level >= precedence().size()) return parseUnary();
    auto lhs = parseBinary(level + 1);
    while (true) {
      bool matched = false;
      for (const auto op : precedence()[level].ops) {
        if (!atPunct(op)) continue;
        // Disambiguate '<' / '>' from template args: template args are
        // handled in parsePostfix via backtracking, so reaching here with
        // '<' really is a comparison.
        const Location l = loc();
        advance();
        auto rhs = parseBinary(level + 1);
        auto e = Expr::make(ExprKind::Binary, l, std::string(op));
        e->args.push_back(std::move(lhs));
        e->args.push_back(std::move(rhs));
        lhs = std::move(e);
        matched = true;
        break;
      }
      if (!matched) return lhs;
    }
  }

  [[nodiscard]] ExprPtr parseUnary() {
    const auto guard = nest();
    static const std::string_view ops[] = {"!", "-", "+", "~", "*", "&", "++", "--"};
    for (const auto op : ops) {
      if (atPunct(op)) {
        const Location l = loc();
        advance();
        auto e = Expr::make(ExprKind::Unary, l, std::string(op));
        e->args.push_back(parseUnary());
        return e;
      }
    }
    return parsePostfix();
  }

  /// Try `<typeArgs>` at the cursor, requiring it to be followed by '('.
  /// Returns nullopt (cursor restored) if it does not parse as targs.
  [[nodiscard]] std::optional<std::vector<Type>> tryParseCallTypeArgs() {
    if (!atPunct("<")) return std::nullopt;
    const usize save = pos_;
    advance();
    std::vector<Type> args;
    while (!atPunct(">")) {
      if (at(TokKind::IntLit)) {
        args.push_back(Type::simple(advance().text));
      } else if (acceptKeyword("class") || acceptKeyword("typename")) {
        args.push_back(Type::simple("class " + expectIdent()));
      } else if (auto t = tryParseType()) {
        args.push_back(std::move(*t));
      } else {
        pos_ = save;
        return std::nullopt;
      }
      if (!acceptPunct(",")) break;
    }
    if (!atPunct(">")) {
      pos_ = save;
      return std::nullopt;
    }
    advance();
    if (!atPunct("(")) {
      pos_ = save;
      return std::nullopt;
    }
    return args;
  }

  [[nodiscard]] ExprPtr parsePostfix() {
    auto e = parsePrimary();
    while (true) {
      const Location l = loc();
      if (atPunct("(")) {
        advance();
        auto call = Expr::make(ExprKind::Call, l);
        call->args.push_back(std::move(e));
        while (!atPunct(")")) {
          call->args.push_back(parseAssignment());
          if (!acceptPunct(",")) break;
        }
        expectPunct(")");
        e = std::move(call);
        continue;
      }
      if (atPunct("<<<")) {
        advance();
        auto launch = Expr::make(ExprKind::KernelLaunch, l);
        launch->args.push_back(std::move(e));
        launch->args.push_back(parseAssignment()); // grid
        expectPunct(",");
        launch->args.push_back(parseAssignment()); // block
        expectPunct(">>>");
        expectPunct("(");
        while (!atPunct(")")) {
          launch->args.push_back(parseAssignment());
          if (!acceptPunct(",")) break;
        }
        expectPunct(")");
        e = std::move(launch);
        continue;
      }
      if (atPunct("[")) {
        advance();
        auto idx = Expr::make(ExprKind::Index, l);
        idx->args.push_back(std::move(e));
        idx->args.push_back(parseExpr());
        expectPunct("]");
        e = std::move(idx);
        continue;
      }
      if (atPunct(".") || atPunct("->")) {
        advance();
        auto mem = Expr::make(ExprKind::Member, l, expectIdent());
        mem->args.push_back(std::move(e));
        // Member template-call: `.get_access<sycl::access::mode::read>(...)`.
        if (auto targs = tryParseCallTypeArgs()) mem->typeArgs = std::move(*targs);
        e = std::move(mem);
        continue;
      }
      if (atPunct("++") || atPunct("--")) {
        auto u = Expr::make(ExprKind::Unary, l, "post" + advance().text);
        u->args.push_back(std::move(e));
        e = std::move(u);
        continue;
      }
      // Template call on a plain identifier: `f<double>(...)`.
      if ((e->kind == ExprKind::Ident) && atPunct("<")) {
        if (auto targs = tryParseCallTypeArgs()) {
          e->typeArgs = std::move(*targs);
          continue; // the '(' will be consumed by the Call branch above
        }
      }
      return e;
    }
  }

  [[nodiscard]] ExprPtr parsePrimary() {
    const Location l = loc();
    if (at(TokKind::IntLit)) return Expr::make(ExprKind::IntLit, l, advance().text);
    if (at(TokKind::FloatLit)) return Expr::make(ExprKind::FloatLit, l, advance().text);
    if (at(TokKind::StringLit)) return Expr::make(ExprKind::StringLit, l, advance().text);
    if (at(TokKind::CharLit)) return Expr::make(ExprKind::StringLit, l, advance().text);
    if (atKeyword("true") || atKeyword("false"))
      return Expr::make(ExprKind::BoolLit, l, advance().text);
    if (atKeyword("nullptr")) {
      advance();
      return Expr::make(ExprKind::IntLit, l, "0");
    }
    if (atKeyword("sizeof")) {
      advance();
      expectPunct("(");
      auto e = Expr::make(ExprKind::Call, l);
      e->args.push_back(Expr::make(ExprKind::Ident, l, "sizeof"));
      if (auto t = tryParseType()) {
        if (atPunct(")")) {
          e->args.push_back(Expr::make(ExprKind::Ident, l, t->str()));
        } else {
          fail("expected ')' after sizeof type");
        }
      } else {
        e->args.push_back(parseExpr());
      }
      expectPunct(")");
      return e;
    }
    if (atPunct("(")) {
      // Cast or parenthesised expression: `(type) expr` vs `(expr)`.
      const usize save = pos_;
      advance();
      if (auto t = tryParseType()) {
        if (atPunct(")")) {
          advance();
          // Only treat as a cast if an expression plausibly follows.
          if (at(TokKind::Ident) || at(TokKind::IntLit) || at(TokKind::FloatLit) ||
              atPunct("(") || atPunct("*") || atPunct("&") || atPunct("-")) {
            auto cast = Expr::make(ExprKind::Cast, l, t->str());
            cast->valueType = *t;
            cast->args.push_back(parseUnary());
            return cast;
          }
        }
      }
      pos_ = save;
      advance(); // '('
      auto inner = parseExpr();
      expectPunct(")");
      return inner;
    }
    if (atPunct("[")) return parseLambda();
    if (atPunct("{")) {
      advance();
      auto e = Expr::make(ExprKind::InitList, l);
      while (!atPunct("}")) {
        e->args.push_back(parseAssignment());
        if (!acceptPunct(",")) break;
      }
      expectPunct("}");
      return e;
    }
    if (at(TokKind::Ident) || atKeyword("operator")) {
      std::string name = advance().text;
      while (atPunct("::") && (peek(1).is(TokKind::Ident) || peek(1).is(TokKind::Keyword))) {
        advance();
        name += "::" + advance().text;
      }
      return Expr::make(ExprKind::Ident, l, name);
    }
    // Type keyword used as a constructor: `double(x)` / `int(n)`.
    if (atTypeKeyword()) {
      const std::string name = advance().text;
      return Expr::make(ExprKind::Ident, l, name);
    }
    fail("expected expression, got '" + peek().text + "'");
  }

  [[nodiscard]] ExprPtr parseLambda() {
    const Location l = loc();
    expectPunct("[");
    std::string capture;
    while (!atPunct("]")) {
      capture += advance().text;
    }
    expectPunct("]");
    auto e = Expr::make(ExprKind::Lambda, l, capture);
    if (atPunct("(")) e->params = parseParamList();
    if (acceptPunct("->")) {
      (void)tryParseType(); // trailing return type: parsed, not recorded
    }
    e->body = parseCompound();
    return e;
  }

  std::vector<Token> pendingPragmas_;
};

} // namespace

lang::ast::TranslationUnit parseTranslationUnit(const std::vector<Token> &tokens,
                                                std::string fileName,
                                                const lang::SourceManager &sm) {
  return Parser(tokens, std::move(fileName), sm).parse();
}

} // namespace sv::minic
