#include <gtest/gtest.h>

#include "ir/lower.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "tree/ted.hpp"

using namespace sv;
using namespace sv::minif;
using namespace sv::lang::ast;

namespace {
lang::SourceManager gSm;

TranslationUnit parseF(const std::string &src) {
  return parseFortran(lexFortran(src, 0), "t.f90", gSm);
}

usize countLabel(const tree::Tree &t, const std::string &needle) {
  usize n = 0;
  for (const auto &node : t.nodes())
    if (node.label.find(needle) != std::string::npos) ++n;
  return n;
}
} // namespace

// --------------------------------------------------------------- lexer ---

TEST(FLexer, KeywordsCaseInsensitive) {
  const auto toks = lexFortran("PROGRAM test\nEnd Program\n", 0);
  EXPECT_TRUE(toks[0].isKeyword("program"));
  EXPECT_TRUE(toks[1].is(FTokKind::Ident, "test"));
}

TEST(FLexer, CommentsVanishDirectivesSurvive) {
  const auto toks = lexFortran("x = 1 ! a comment\n!$omp parallel do\n! pure comment\n", 0);
  usize directives = 0, comments = 0;
  for (const auto &t : toks) {
    if (t.is(FTokKind::Directive)) ++directives;
    if (t.text.find("comment") != std::string::npos) ++comments;
  }
  EXPECT_EQ(directives, 1u);
  EXPECT_EQ(comments, 0u);
}

TEST(FLexer, ContinuationMergesStatement) {
  const auto toks = lexFortran("x = a + &\n    b\ny = 1\n", 0);
  usize newlines = 0;
  for (const auto &t : toks)
    if (t.is(FTokKind::Newline)) ++newlines;
  EXPECT_EQ(newlines, 2u); // merged first statement + second statement
}

TEST(FLexer, RealLiteralsWithKindAndExponent) {
  const auto toks = lexFortran("a = 1.0_8\nb = 2.5e-3\nc = 4\n", 0);
  std::vector<FTokKind> kinds;
  for (const auto &t : toks)
    if (t.is(FTokKind::RealLit) || t.is(FTokKind::IntLit)) kinds.push_back(t.kind);
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], FTokKind::RealLit);
  EXPECT_EQ(kinds[1], FTokKind::RealLit);
  EXPECT_EQ(kinds[2], FTokKind::IntLit);
}

TEST(FLexer, FortranOperators) {
  const auto toks = lexFortran("if (a /= b .and. c <= d) then\n", 0);
  bool ne = false, le = false;
  for (const auto &t : toks) {
    if (t.isPunct("/=")) ne = true;
    if (t.isPunct("<=")) le = true;
  }
  EXPECT_TRUE(ne);
  EXPECT_TRUE(le);
}

TEST(FLexer, CommentRangesSkipDirectives) {
  const std::string src = "x = 1 ! note\n!$acc parallel\n! plain\n";
  const auto ranges = fortranCommentRanges(src);
  ASSERT_EQ(ranges.size(), 2u); // "! note" and "! plain", not the sentinel
}

// -------------------------------------------------------------- parser ---

TEST(FParser, ProgramUnit) {
  const auto tu = parseF("program stream\n  implicit none\n  x = 1\nend program stream\n");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_EQ(tu.functions[0].name, "stream");
  EXPECT_EQ(tu.programName, "stream");
}

TEST(FParser, SubroutineWithTypedParams) {
  const auto tu = parseF(
      "subroutine copy(a, b, n)\n"
      "  integer, intent(in) :: n\n"
      "  real(8), intent(in) :: b(:)\n"
      "  real(8), intent(out) :: a(:)\n"
      "  integer :: i\n"
      "  do i = 1, n\n"
      "    a(i) = b(i)\n"
      "  end do\n"
      "end subroutine copy\n");
  ASSERT_EQ(tu.functions.size(), 1u);
  const auto &f = tu.functions[0];
  ASSERT_EQ(f.params.size(), 3u);
  EXPECT_EQ(f.params[2].type.name, "int");   // n
  EXPECT_EQ(f.params[0].type.pointer, 1);    // a(:) -> array param
  // Body: decl of i + do loop.
  ASSERT_EQ(f.body->children.size(), 2u);
  EXPECT_EQ(f.body->children[1]->kind, StmtKind::ForRange);
  EXPECT_EQ(f.body->children[1]->loopVar, "i");
}

TEST(FParser, DoLoopBounds) {
  const auto tu = parseF("program p\ninteger :: i\ndo i = 2, 10\n  x = i\nend do\nend program\n");
  const auto &loop = *tu.functions[0].body->children[1];
  EXPECT_EQ(loop.kind, StmtKind::ForRange);
  EXPECT_EQ(loop.cond->text, "2");
  EXPECT_EQ(loop.step->text, "10");
}

TEST(FParser, DoConcurrentWrapped) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "do concurrent (i = 1:n)\n  a(i) = 0.0\nend do\nend program\n");
  const auto &wrapper = *tu.functions[0].body->children[2];
  ASSERT_EQ(wrapper.kind, StmtKind::Directive);
  EXPECT_EQ(wrapper.directive->family, "fortran");
  EXPECT_EQ(wrapper.directive->kind, (std::vector<std::string>{"concurrent"}));
  EXPECT_EQ(wrapper.children[0]->kind, StmtKind::ForRange);
}

TEST(FParser, ArrayAssignment) {
  const auto tu = parseF(
      "program p\nreal(8), allocatable :: a(:), b(:), c(:)\n"
      "a(:) = b(:) + 0.4 * c(:)\nend program\n");
  const auto &s = *tu.functions[0].body->children[1];
  ASSERT_EQ(s.kind, StmtKind::ArrayAssign);
  EXPECT_EQ(s.cond->kind, ExprKind::Index);
  EXPECT_EQ(s.step->kind, ExprKind::Binary);
}

TEST(FParser, OmpDirectiveGovernsLoop) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$omp parallel do\n"
      "do i = 1, n\n  a(i) = 1.0\nend do\n"
      "!$omp end parallel do\n"
      "end program\n");
  const auto &d = *tu.functions[0].body->children[2];
  ASSERT_EQ(d.kind, StmtKind::Directive);
  EXPECT_EQ(d.directive->family, "omp");
  EXPECT_EQ(d.directive->kind, (std::vector<std::string>{"parallel", "do"}));
  ASSERT_EQ(d.children.size(), 1u);
  EXPECT_EQ(d.children[0]->kind, StmtKind::ForRange);
}

TEST(FParser, AccDirectiveWithClauses) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$acc parallel loop copyout(a)\n"
      "do i = 1, n\n  a(i) = 1.0\nend do\n"
      "end program\n");
  const auto &d = *tu.functions[0].body->children[2];
  EXPECT_EQ(d.directive->family, "acc");
  ASSERT_EQ(d.directive->clauses.size(), 1u);
  EXPECT_EQ(d.directive->clauses[0].name, "copyout");
}

TEST(FParser, IfThenElse) {
  const auto tu = parseF(
      "program p\nif (x > 1.0) then\n  y = 1\nelse\n  y = 2\nend if\nend program\n");
  const auto &s = *tu.functions[0].body->children[0];
  ASSERT_EQ(s.kind, StmtKind::If);
  ASSERT_EQ(s.children.size(), 2u);
}

TEST(FParser, CallAndAllocate) {
  const auto tu = parseF(
      "program p\nreal(8), allocatable :: a(:)\nallocate(a(n))\ncall init(a, n)\n"
      "deallocate(a)\nend program\n");
  const auto &body = *tu.functions[0].body;
  ASSERT_EQ(body.children.size(), 4u);
  EXPECT_EQ(body.children[1]->cond->args[0]->text, "allocate");
  EXPECT_EQ(body.children[2]->cond->args[0]->text, "init");
}

TEST(FParser, FunctionWithResult) {
  const auto tu = parseF(
      "real(8) function dot(a, b, n) result(s)\n"
      "  real(8), intent(in) :: a(:), b(:)\n"
      "  integer, intent(in) :: n\n"
      "  integer :: i\n  s = 0.0\n"
      "  do i = 1, n\n    s = s + a(i) * b(i)\n  end do\n"
      "end function dot\n");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_EQ(tu.functions[0].returnType.name, "double");
}

TEST(FParser, ModuleContainsSubroutines) {
  const auto tu = parseF(
      "module kernels\ncontains\n"
      "subroutine mul(b, c, n)\n  integer :: i\n  do i = 1, n\n    b(i) = 0.4 * c(i)\n"
      "  end do\nend subroutine\n"
      "end module kernels\n");
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_EQ(tu.functions[0].name, "mul");
}

TEST(FParser, ArrayVsCallDisambiguation) {
  const auto tu = parseF(
      "program p\nreal(8), allocatable :: a(:)\nx = a(5)\ny = sqrt(2.0)\nend program\n");
  const auto &ax = *tu.functions[0].body->children[1]->cond;
  EXPECT_EQ(ax.args[1]->kind, ExprKind::Index);
  const auto &sq = *tu.functions[0].body->children[2]->cond;
  EXPECT_EQ(sq.args[1]->kind, ExprKind::Call);
}

TEST(FParser, LogicalOperators) {
  const auto tu =
      parseF("program p\nif (a > 1.0 .and. .not. done) then\n x = 1\nend if\nend program\n");
  const auto &cond = *tu.functions[0].body->children[0]->cond;
  EXPECT_EQ(cond.text, "&&");
  EXPECT_EQ(cond.args[1]->text, "!");
}

// --------------------------------------------------------------- trees ---

TEST(FTrees, SrcTreeDirectiveWords) {
  const auto t = buildFortranSrcTree(lexFortran("!$omp parallel do reduction(+:sum)\n", 0));
  EXPECT_EQ(countLabel(t, "directive"), 1u);
  EXPECT_GE(countLabel(t, "omp"), 1u);
}

TEST(FTrees, SrcTreeNormalisesNames) {
  const auto a = buildFortranSrcTree(lexFortran("x = alpha + 1.0\n", 0));
  const auto b = buildFortranSrcTree(lexFortran("y = beta + 1.0\n", 0));
  EXPECT_EQ(tree::ted(a, b), 0u);
}

TEST(FTrees, SemTreeOmpTokens) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$omp parallel do\ndo i = 1, n\n  a(i) = 1.0\nend do\nend program\n");
  const auto t = buildFortranSemTree(tu);
  EXPECT_EQ(countLabel(t, "gimple_omp_parallel_do"), 1u);
}

TEST(FTrees, SemTreeAccTokens) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$acc parallel loop\ndo i = 1, n\n  a(i) = 1.0\nend do\nend program\n");
  const auto t = buildFortranSemTree(tu);
  EXPECT_EQ(countLabel(t, "gimple_oacc_parallel_loop"), 1u);
}

TEST(FTrees, ArrayAssignScalarises) {
  const auto tu = parseF(
      "program p\nreal(8), allocatable :: a(:), b(:)\na(:) = b(:)\nend program\n");
  const auto t = buildFortranSemTree(tu);
  EXPECT_EQ(countLabel(t, "gimple_array_assign"), 1u);
  EXPECT_EQ(countLabel(t, "scalarized_loop"), 1u);
}

TEST(FTrees, SemLabelsDisjointFromClangLabels) {
  // GIMPLE trees must not be comparable to ClangAST trees (Section IV-B):
  // the label vocabularies are disjoint, so everything diverges.
  const auto tu = parseF("program p\nx = 1\nend program\n");
  const auto t = buildFortranSemTree(tu);
  EXPECT_EQ(countLabel(t, "FunctionDecl"), 0u);
  EXPECT_GE(countLabel(t, "function_decl"), 1u);
}

// ----------------------------------------------------------- IR via AST --

TEST(FTrees, AccLowersInline) {
  // The GCC QoI finding of Section V-B: no parallel runtime calls for acc.
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$acc parallel loop\ndo i = 1, n\n  a(i) = 1.0\nend do\nend program\n");
  ir::LowerOptions opts;
  opts.model = ir::Model::OpenAcc;
  const auto m = ir::lower(tu, opts);
  for (const auto &f : m.functions)
    for (const auto &b : f.blocks)
      for (const auto &in : b.instrs)
        if (in.op == "call") {
          EXPECT_EQ(in.operands[0].find("__kmpc"), std::string::npos);
        }
  EXPECT_EQ(m.functions.size(), 1u); // nothing outlined
}

TEST(FTrees, OmpFortranLowersToFork) {
  const auto tu = parseF(
      "program p\ninteger :: i\nreal(8), allocatable :: a(:)\n"
      "!$omp parallel do\ndo i = 1, n\n  a(i) = 1.0\nend do\nend program\n");
  ir::LowerOptions opts;
  opts.model = ir::Model::OpenMP;
  const auto m = ir::lower(tu, opts);
  EXPECT_EQ(m.functions.size(), 2u); // program + outlined region
}
