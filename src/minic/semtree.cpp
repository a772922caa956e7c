#include "minic/semtree.hpp"
#include <set>

#include <cctype>

#include "support/strings.hpp"

namespace sv::minic {

namespace {

using namespace lang::ast;
using tree::NodeId;
using tree::Tree;

class SemTreeBuilder {
public:
  SemTreeBuilder(const TranslationUnit &unit, const SemTreeOptions &options)
      : unit_(unit), options_(options), tree_(Tree::leaf("TranslationUnitDecl")) {}

  Tree build() {
    for (const auto &s : unit_.structs) {
      if (masked(s.loc)) continue;
      const auto node = add(0, "RecordDecl", s.loc);
      for (const auto &f : s.fields) {
        (void)f;
        add(node, "FieldDecl", s.loc);
      }
    }
    for (const auto &g : unit_.globals) {
      if (masked(g.loc)) continue;
      const auto node = add(0, "VarDecl", g.loc);
      for (const auto &a : g.attributes) addAttr(node, a, g.loc);
      for (const auto &dim : g.var.arrayDims)
        if (dim) visitExpr(node, *dim);
      if (g.var.init) visitExpr(node, *g.var.init);
    }
    for (const auto &f : unit_.functions) {
      if (masked(f.loc)) continue;
      visitFunction(0, f);
    }
    return std::move(tree_);
  }

private:
  const TranslationUnit &unit_;
  const SemTreeOptions &options_;
  Tree tree_;

  [[nodiscard]] bool masked(const lang::Location &loc) const {
    return loc.file >= 0 && options_.maskedFiles.count(loc.file) != 0;
  }

  NodeId add(NodeId parent, std::string label, const lang::Location &loc) {
    return tree_.addChild(parent, std::move(label), loc.file, loc.line);
  }

  void addAttr(NodeId parent, const std::string &attr, const lang::Location &loc) {
    if (attr == "__global__") add(parent, "CUDAGlobalAttr", loc);
    else if (attr == "__device__") add(parent, "CUDADeviceAttr", loc);
    else if (attr == "__host__") add(parent, "CUDAHostAttr", loc);
    else if (attr == "__constant__") add(parent, "CUDAConstantAttr", loc);
    else if (attr == "__shared__") add(parent, "CUDASharedAttr", loc);
    else if (str::startsWith(attr, "#pragma")) {
      // file-scope pragma recorded as an attribute (e.g. omp declare target)
      add(parent, "OMPDeclareTargetDeclAttr", loc);
    }
    // static/inline/constexpr do not materialise AST nodes in ClangAST.
  }

  void visitFunction(NodeId parent, const FunctionDecl &f) {
    NodeId node = parent;
    if (!f.templateParams.empty()) {
      node = add(parent, "FunctionTemplateDecl", f.loc);
      for (usize i = 0; i < f.templateParams.size(); ++i)
        add(node, "TemplateTypeParmDecl", f.loc);
    }
    const auto fn = add(node, "FunctionDecl", f.loc);
    for (const auto &a : f.attributes) addAttr(fn, a, f.loc);
    for (const auto &p : f.params) {
      const auto pn = add(fn, "ParmVarDecl", f.loc);
      if (p.defaultValue) visitExpr(pn, *p.defaultValue);
    }
    if (f.body) visitStmt(fn, *f.body);
  }

  // ------------------------------------------------------------ stmts --
  void visitStmt(NodeId parent, const Stmt &s) {
    switch (s.kind) {
    case StmtKind::Compound: {
      const auto n = add(parent, "CompoundStmt", s.loc);
      for (const auto &c : s.children) visitStmt(n, *c);
      break;
    }
    case StmtKind::If: {
      const auto n = add(parent, "IfStmt", s.loc);
      visitExpr(n, *s.cond);
      for (const auto &c : s.children) visitStmt(n, *c);
      break;
    }
    case StmtKind::For: {
      const auto n = add(parent, "ForStmt", s.loc);
      if (s.init) visitStmt(n, *s.init);
      if (s.cond) visitExpr(n, *s.cond);
      if (s.step) visitExpr(n, *s.step);
      for (const auto &c : s.children) visitStmt(n, *c);
      break;
    }
    case StmtKind::ForRange: {
      const auto n = add(parent, "ForStmt", s.loc);
      if (s.cond) visitExpr(n, *s.cond);
      if (s.step) visitExpr(n, *s.step);
      for (const auto &c : s.children) visitStmt(n, *c);
      break;
    }
    case StmtKind::While: {
      const auto n = add(parent, "WhileStmt", s.loc);
      visitExpr(n, *s.cond);
      for (const auto &c : s.children) visitStmt(n, *c);
      break;
    }
    case StmtKind::DoWhile: {
      const auto n = add(parent, "DoStmt", s.loc);
      for (const auto &c : s.children) visitStmt(n, *c);
      visitExpr(n, *s.cond);
      break;
    }
    case StmtKind::Return: {
      const auto n = add(parent, "ReturnStmt", s.loc);
      if (s.cond) visitExpr(n, *s.cond);
      break;
    }
    case StmtKind::Break: add(parent, "BreakStmt", s.loc); break;
    case StmtKind::Continue: add(parent, "ContinueStmt", s.loc); break;
    case StmtKind::ExprStmt: visitExpr(parent, *s.cond); break;
    case StmtKind::DeclStmt: {
      const auto n = add(parent, "DeclStmt", s.loc);
      for (const auto &d : s.decls) {
        const auto v = add(n, "VarDecl", s.loc);
        for (const auto &dim : d.arrayDims)
          if (dim) visitExpr(v, *dim);
        if (d.init) visitExpr(v, *d.init);
      }
      break;
    }
    case StmtKind::Directive: {
      visitDirective(parent, s);
      break;
    }
    case StmtKind::ArrayAssign: {
      const auto n = add(parent, "ArrayAssignStmt", s.loc);
      if (s.cond) visitExpr(n, *s.cond);
      if (s.step) visitExpr(n, *s.step);
      break;
    }
    case StmtKind::Empty: add(parent, "NullStmt", s.loc); break;
    }
  }

  /// The paper's central OpenMP observation: Clang has OpenMP-specific AST
  /// tokens ("OMPParallelForDirective", clause nodes, captured statements)
  /// that carry semantics invisible at the source level. We mirror that
  /// shape: directive node -> clause nodes -> captured statement.
  void visitDirective(NodeId parent, const Stmt &s) {
    SV_CHECK(s.directive.has_value(), "directive stmt without directive");
    const auto &d = *s.directive;
    std::string label = d.family == "acc" ? "ACC" : "OMP";
    for (const auto &k : d.kind) {
      std::string word = k;
      if (!word.empty()) word[0] = static_cast<char>(std::toupper(word[0]));
      label += word;
    }
    label += "Directive";
    const auto n = add(parent, label, s.loc);
    for (const auto &c : d.clauses) {
      std::string cname = c.name;
      if (!cname.empty()) cname[0] = static_cast<char>(std::toupper(cname[0]));
      const auto cn = add(n, (d.family == "acc" ? "ACC" : "OMP") + cname + "Clause", s.loc);
      // Clause arguments are variable references — names dropped, but each
      // argument is a semantic capture the compiler must materialise.
      for (const auto &arg : c.arguments) {
        (void)arg;
        add(cn, "DeclRefExpr", s.loc);
      }
    }
    if (!s.children.empty()) {
      const auto cap = add(n, "CapturedStmt", s.loc);
      // Clang materialises the captured record: one implicit capture field
      // per distinct variable the region references. These nodes exist
      // nowhere in the source — the core of the paper's observation that
      // OpenMP's semantic divergence exceeds its perceived divergence.
      std::set<std::string> captured;
      for (const auto &c : s.children) collectNames(*c, captured);
      for (const auto &name : captured) {
        (void)name;
        add(cap, "OMPCapturedExprDecl", s.loc);
      }
      for (const auto &c : s.children) visitStmt(cap, *c);
    }
  }

  static void collectNames(const Expr &e, std::set<std::string> &out) {
    if (e.kind == ExprKind::Ident) out.insert(e.text);
    for (const auto &a : e.args)
      if (a) collectNames(*a, out);
    if (e.body) collectNames(*e.body, out);
  }
  static void collectNames(const Stmt &s, std::set<std::string> &out) {
    if (s.cond) collectNames(*s.cond, out);
    if (s.step) collectNames(*s.step, out);
    if (s.init) collectNames(*s.init, out);
    for (const auto &d : s.decls) {
      if (d.init) collectNames(*d.init, out);
      for (const auto &dim : d.arrayDims)
        if (dim) collectNames(*dim, out);
    }
    for (const auto &c : s.children)
      if (c) collectNames(*c, out);
  }

  // ------------------------------------------------------------ exprs --
  void visitExpr(NodeId parent, const Expr &e) {
    switch (e.kind) {
    case ExprKind::IntLit: add(parent, "IntegerLiteral:" + e.text, e.loc); break;
    case ExprKind::FloatLit: add(parent, "FloatingLiteral:" + e.text, e.loc); break;
    case ExprKind::StringLit: add(parent, "StringLiteral", e.loc); break;
    case ExprKind::BoolLit: add(parent, "CXXBoolLiteralExpr:" + e.text, e.loc); break;
    case ExprKind::Ident:
      // Programmer names removed; only the reference itself remains.
      add(parent, "DeclRefExpr", e.loc);
      break;
    case ExprKind::Binary: {
      const auto n = add(parent, "BinaryOperator:" + e.text, e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Unary: {
      const auto n = add(parent, "UnaryOperator:" + e.text, e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Assign: {
      const char *kind = e.text == "=" ? "BinaryOperator:=" : "CompoundAssignOperator:";
      const auto n =
          add(parent, e.text == "=" ? std::string(kind) : std::string(kind) + e.text, e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Conditional: {
      const auto n = add(parent, "ConditionalOperator", e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Call: {
      const auto n = add(parent, "CallExpr", e.loc);
      emitTemplateArgs(n, e);
      for (const auto &a : e.args) visitExpr(n, *a);
      emitApiConversions(n, e);
      // T_sem+i: the inliner grafts the callee body onto the call (Section
      // IV-A); when present it becomes part of the call's subtree.
      if (e.body) visitStmt(n, *e.body);
      break;
    }
    case ExprKind::KernelLaunch: {
      // CUDA semantic node: launch config is a semantic child of its own.
      const auto n = add(parent, "CUDAKernelCallExpr", e.loc);
      const auto cfg = add(n, "KernelLaunchConfig", e.loc);
      visitExpr(n, *e.args[0]);          // callee ref
      if (e.args.size() > 1) visitExpr(cfg, *e.args[1]); // grid
      if (e.args.size() > 2) visitExpr(cfg, *e.args[2]); // block
      for (usize i = 3; i < e.args.size(); ++i) visitExpr(n, *e.args[i]);
      break;
    }
    case ExprKind::Index: {
      const auto n = add(parent, "ArraySubscriptExpr", e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Member: {
      const auto n = add(parent, "MemberExpr", e.loc);
      emitTemplateArgs(n, e);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Lambda: {
      const auto n = add(parent, "LambdaExpr", e.loc);
      for (const auto &p : e.params) {
        (void)p;
        add(n, "ParmVarDecl", e.loc);
      }
      if (e.body) visitStmt(n, *e.body);
      break;
    }
    case ExprKind::Cast: {
      const auto n = add(parent, "CStyleCastExpr", e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::ImplicitCast: {
      // Non-semantic (ClangAST keeps it; T_sem filters it): splice through.
      for (const auto &a : e.args) visitExpr(parent, *a);
      break;
    }
    case ExprKind::InitList: {
      const auto n = add(parent, "InitListExpr", e.loc);
      for (const auto &a : e.args) visitExpr(n, *a);
      break;
    }
    case ExprKind::Range: {
      const auto n = add(parent, "ArraySectionExpr", e.loc);
      for (const auto &a : e.args)
        if (a) visitExpr(n, *a);
      break;
    }
    }
  }

  /// Template arguments — written ones and the hidden/defaulted ones the
  /// API registry supplied. Both materialise in ClangAST.
  void emitTemplateArgs(NodeId node, const Expr &e) {
    for (const auto &t : e.typeArgs) {
      (void)t;
      add(node, "TemplateArgument", e.loc);
    }
    for (u32 i = 0; i < e.apiHiddenTemplates; ++i)
      add(node, "TemplateArgument:defaulted", e.loc);
  }

  void emitApiConversions(NodeId node, const Expr &e) {
    for (u32 i = 0; i < e.apiImplicitConversions; ++i)
      add(node, "CXXConstructExpr", e.loc);
  }
};

} // namespace

tree::Tree buildSemTree(const lang::ast::TranslationUnit &unit, const SemTreeOptions &options) {
  return SemTreeBuilder(unit, options).build();
}

} // namespace sv::minic
