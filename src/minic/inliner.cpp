#include "minic/inliner.hpp"

#include <map>

namespace sv::minic {

namespace {

using namespace lang::ast;

class Inliner {
public:
  Inliner(TranslationUnit &unit, const InlineOptions &options) : unit_(unit) {
    for (const auto &f : unit.functions) {
      if (!f.body) continue;
      if (f.loc.file >= 0 && options.systemFiles.count(f.loc.file)) continue;
      bodies_[f.name] = &f;
    }
  }

  InlineStats run() {
    for (usize pass = 0; pass < kMaxInlineDepth; ++pass) {
      changed_ = false;
      for (auto &f : unit_.functions) {
        current_ = f.name;
        if (f.body) visitStmt(*f.body);
      }
      if (!changed_) break;
    }
    return stats_;
  }

private:
  TranslationUnit &unit_;
  std::map<std::string, const FunctionDecl *> bodies_;
  InlineStats stats_;
  std::string current_;
  bool changed_ = false;

  void visitStmt(Stmt &s) {
    if (s.cond) visitExpr(*s.cond);
    if (s.step) visitExpr(*s.step);
    if (s.init) visitStmt(*s.init);
    for (auto &d : s.decls) {
      if (d.init) visitExpr(*d.init);
      for (auto &dim : d.arrayDims)
        if (dim) visitExpr(*dim);
    }
    for (auto &c : s.children)
      if (c) visitStmt(*c);
  }

  void visitExpr(Expr &e) {
    for (auto &a : e.args)
      if (a) visitExpr(*a);
    if (e.body) visitStmt(*e.body); // lambdas and already-inlined bodies
    if (e.kind != ExprKind::Call || e.body) return;
    const Expr &callee = *e.args[0];
    if (callee.kind != ExprKind::Ident) return;
    if (callee.text == current_) return; // direct recursion
    const auto it = bodies_.find(callee.text);
    if (it == bodies_.end() || !it->second->body) return;
    e.body = it->second->body->clone();
    ++stats_.inlinedCalls;
    changed_ = true;
  }
};

} // namespace

InlineStats inlineUnit(lang::ast::TranslationUnit &unit, const InlineOptions &options) {
  return Inliner(unit, options).run();
}

} // namespace sv::minic
