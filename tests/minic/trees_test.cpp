// Tests for the T_src / T_sem tree generators and the T_sem+i inliner —
// including the paper's qualitative findings at micro scale: OpenMP
// directives add semantic nodes invisible at the source level, SYCL API
// calls grow hidden template arguments, and inlining pulls abstraction
// bodies into call sites.
#include <gtest/gtest.h>

#include "minic/inliner.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "minic/semtree.hpp"
#include "minic/srctree.hpp"
#include "tree/ted.hpp"

using namespace sv;
using namespace sv::minic;
using namespace sv::lang::ast;

namespace {
lang::SourceManager gSm;

TranslationUnit front(const std::string &src) {
  auto tu = parseTranslationUnit(lex(src, 0), "t.cpp", gSm);
  analyse(tu);
  return tu;
}

usize countLabel(const tree::Tree &t, const std::string &needle) {
  usize n = 0;
  for (const auto &node : t.nodes())
    if (node.label.find(needle) != std::string::npos) ++n;
  return n;
}
} // namespace

// ------------------------------------------------------------- T_src ----

TEST(SrcTree, IdentifiersNormalised) {
  const auto t = buildSrcTree(lex("int alpha = beta;", 0));
  EXPECT_EQ(countLabel(t, "id"), 2u);
  EXPECT_EQ(countLabel(t, "alpha"), 0u);
}

TEST(SrcTree, SameStructureDifferentNamesIdenticalTrees) {
  const auto a = buildSrcTree(lex("int foo(int x) { return x + 1; }", 0));
  const auto b = buildSrcTree(lex("int bar(int y) { return y + 1; }", 0));
  EXPECT_EQ(tree::ted(a, b), 0u);
}

TEST(SrcTree, BracketsNest) {
  const auto t = buildSrcTree(lex("void f() { g(h[i]); }", 0));
  EXPECT_EQ(countLabel(t, "braces"), 1u);
  EXPECT_EQ(countLabel(t, "parens"), 2u);
  EXPECT_EQ(countLabel(t, "brackets"), 1u);
}

TEST(SrcTree, DelimitersDropped) {
  const auto t = buildSrcTree(lex("f(a, b); g();", 0));
  EXPECT_EQ(countLabel(t, ","), 0u);
  EXPECT_EQ(countLabel(t, ";"), 0u);
}

TEST(SrcTree, OperatorsRetained) {
  const auto t = buildSrcTree(lex("a = b * c + d;", 0));
  EXPECT_EQ(countLabel(t, "="), 1u);
  EXPECT_EQ(countLabel(t, "*"), 1u);
  EXPECT_EQ(countLabel(t, "+"), 1u);
}

TEST(SrcTree, PragmaTokensSurvive) {
  const auto t = buildSrcTree(lex("#pragma omp parallel for reduction(+:sum)\n", 0));
  EXPECT_EQ(countLabel(t, "pragma"), 1u);
  EXPECT_GE(countLabel(t, "omp"), 1u);
  EXPECT_GE(countLabel(t, "parallel"), 1u);
}

TEST(SrcTree, KernelLaunchConfigGrouped) {
  const auto t = buildSrcTree(lex("k<<<grid, block>>>(a, n);", 0));
  EXPECT_EQ(countLabel(t, "launch-config"), 1u);
}

TEST(SrcTree, LiteralValuesKept) {
  const auto t = buildSrcTree(lex("x = 42; y = 2.5;", 0));
  EXPECT_EQ(countLabel(t, "int:42"), 1u);
  EXPECT_EQ(countLabel(t, "float:2.5"), 1u);
}

TEST(SrcTree, LineBackReferences) {
  const auto t = buildSrcTree(lex("a;\nb;\n", 0));
  // first leaf on line 1, second on line 2
  EXPECT_EQ(t.node(1).line, 1);
  EXPECT_EQ(t.node(2).line, 2);
}

// ------------------------------------------------------------- T_sem ----

TEST(SemTree, FunctionShape) {
  const auto t = buildSemTree(front("int add(int a, int b) { return a + b; }"));
  EXPECT_EQ(countLabel(t, "FunctionDecl"), 1u);
  EXPECT_EQ(countLabel(t, "ParmVarDecl"), 2u);
  EXPECT_EQ(countLabel(t, "CompoundStmt"), 1u);
  EXPECT_EQ(countLabel(t, "ReturnStmt"), 1u);
  EXPECT_EQ(countLabel(t, "BinaryOperator:+"), 1u);
  EXPECT_EQ(countLabel(t, "DeclRefExpr"), 2u);
}

TEST(SemTree, NamesDroppedStructureIdentical) {
  const auto a = buildSemTree(front("double f(double x) { return x * x; }"));
  const auto b = buildSemTree(front("double g(double y) { return y * y; }"));
  EXPECT_EQ(tree::ted(a, b), 0u);
}

TEST(SemTree, ImplicitCastsFilteredByDefault) {
  // Sema inserts the int -> double cast into the AST; T_sem splices it out.
  const auto tu = front("double f(double a, int i) { return a + i; }");
  const auto &ret = *tu.functions[0].body->children[0];
  ASSERT_EQ(ret.kind, StmtKind::Return);
  ASSERT_EQ(ret.cond->args.size(), 2u);
  EXPECT_EQ(ret.cond->args[1]->kind, ExprKind::ImplicitCast);
  EXPECT_EQ(countLabel(buildSemTree(tu), "ImplicitCastExpr"), 0u);
}

TEST(SemTree, OmpDirectiveBecomesSemanticNode) {
  const auto t = buildSemTree(front(R"(
    void f(double* a, int n) {
      #pragma omp parallel for schedule(static)
      for (int i = 0; i < n; i++) a[i] = 0.0;
    })"));
  EXPECT_EQ(countLabel(t, "OMPParallelForDirective"), 1u);
  EXPECT_EQ(countLabel(t, "OMPScheduleClause"), 1u);
  EXPECT_EQ(countLabel(t, "CapturedStmt"), 1u);
}

TEST(SemTree, OmpSemanticsExceedSourceDelta) {
  // The paper's Section V-C observation: OpenMP looks like +1 line at the
  // source level but adds a directive subtree at the semantic level.
  const std::string serial = "void f(double* a, int n) { for (int i = 0; i < n; i++) a[i] = 0.0; }";
  const std::string omp = R"(void f(double* a, int n) {
    #pragma omp parallel for reduction(+:s) schedule(static)
    for (int i = 0; i < n; i++) a[i] = 0.0;
  })";
  const auto srcDelta = tree::ted(buildSrcTree(lex(serial, 0)), buildSrcTree(lex(omp, 0)));
  const auto semDelta = tree::ted(buildSemTree(front(serial)), buildSemTree(front(omp)));
  EXPECT_GT(semDelta, 0u);
  // Source sees the pragma tokens; sem sees directive + clauses + captured
  // statement + per-clause DeclRefs. Sem divergence must not be smaller.
  EXPECT_GE(semDelta, srcDelta > 4 ? srcDelta - 4 : 1u);
}

TEST(SemTree, OmpTargetDirectiveName) {
  const auto t = buildSemTree(front(R"(
    void f(double* a, int n) {
      #pragma omp target teams distribute parallel for map(tofrom: a)
      for (int i = 0; i < n; i++) a[i] = 1.0;
    })"));
  EXPECT_EQ(countLabel(t, "OMPTargetTeamsDistributeParallelForDirective"), 1u);
  EXPECT_EQ(countLabel(t, "OMPMapClause"), 1u);
}

TEST(SemTree, KernelLaunchSemanticNode) {
  const auto t = buildSemTree(front(
      "__global__ void k(double* a) { a[0] = 1.0; }\n"
      "void run(double* a) { k<<<64, 256>>>(a); }"));
  EXPECT_EQ(countLabel(t, "CUDAKernelCallExpr"), 1u);
  EXPECT_EQ(countLabel(t, "KernelLaunchConfig"), 1u);
  EXPECT_EQ(countLabel(t, "CUDAGlobalAttr"), 1u);
}

TEST(SemTree, SyclHiddenTemplatesMaterialise) {
  const auto t = buildSemTree(front(
      "void f(queue q, int n) { double* p = sycl::malloc_device<double>(n, q); }"));
  // 1 written TemplateArgument + 2 defaulted + 1 CXXConstructExpr.
  EXPECT_EQ(countLabel(t, "TemplateArgument"), 3u);
  EXPECT_EQ(countLabel(t, "TemplateArgument:defaulted"), 2u);
  EXPECT_EQ(countLabel(t, "CXXConstructExpr"), 1u);
}

TEST(SemTree, SyclDivergenceExceedsPerceived) {
  // Fig 5 finding: SYCL hides semantic complexity behind terse syntax.
  const std::string serial = "void f(double* a, int n) { for (int i = 0; i < n; i++) a[i] = 0.0; }";
  const std::string sycl = R"(void f(queue q, double* a, int n) {
    q.submit([&](handler h) {
      h.parallel_for<class init_k>(range(n), [=](int i) { a[i] = 0.0; });
    });
  })";
  // Compare dmax-normalised divergences (Eq. 7), as the paper's heatmaps do.
  const auto semSerial = buildSemTree(front(serial));
  const auto semSycl = buildSemTree(front(sycl));
  const auto srcSerial = buildSrcTree(lex(serial, 0));
  const auto srcSycl = buildSrcTree(lex(sycl, 0));
  const double semDelta =
      static_cast<double>(tree::ted(semSerial, semSycl)) / static_cast<double>(semSycl.size());
  const double srcDelta =
      static_cast<double>(tree::ted(srcSerial, srcSycl)) / static_cast<double>(srcSycl.size());
  EXPECT_GT(semDelta, srcDelta);
}

TEST(SemTree, MaskedFilesExcluded) {
  auto tu = front("void a() { x = 1; }\nvoid b() { y = 2; }");
  // Pretend function b's file (file 0) is masked: everything goes.
  SemTreeOptions opts;
  opts.maskedFiles = {0};
  const auto t = buildSemTree(tu, opts);
  EXPECT_EQ(countLabel(t, "FunctionDecl"), 0u);
  EXPECT_EQ(t.size(), 1u); // just the TU root
}

TEST(SemTree, TemplateFunctionWrapped) {
  const auto t = buildSemTree(front("template <typename T> T id(T v) { return v; }"));
  EXPECT_EQ(countLabel(t, "FunctionTemplateDecl"), 1u);
  EXPECT_EQ(countLabel(t, "TemplateTypeParmDecl"), 1u);
}

TEST(SemTree, SourceBackReferencesPresent) {
  const auto t = buildSemTree(front("void f() {\n  x = 1;\n}"));
  bool sawLine2 = false;
  for (const auto &n : t.nodes())
    if (n.line == 2) sawLine2 = true;
  EXPECT_TRUE(sawLine2);
}

// ------------------------------------------------------------ T_sem+i ---

TEST(Inliner, GraftsCalleeBody) {
  auto tu = front(
      "void axpy(double* a, double* b, int n) { for (int i = 0; i < n; i++) a[i] += b[i]; }\n"
      "void run(double* a, double* b, int n) { axpy(a, b, n); }");
  const auto before = buildSemTree(tu).size();
  const auto stats = inlineUnit(tu);
  EXPECT_EQ(stats.inlinedCalls, 1u);
  const auto after = buildSemTree(tu);
  EXPECT_GT(after.size(), before);
  EXPECT_GE(countLabel(after, "ForStmt"), 2u); // original + inlined copy
}

TEST(Inliner, TransitiveInlining) {
  auto tu = front("void c() { w = 1; }\nvoid b() { c(); }\nvoid a() { b(); }");
  const auto stats = inlineUnit(tu);
  // b inlines c; a then clones b's already-inlined body (two graft ops).
  EXPECT_GE(stats.inlinedCalls, 2u);
  // The assignment from c's body must appear three times: in c itself, in
  // b's graft, and inside a's graft of b (which carries c's body along).
  const auto t = buildSemTree(tu);
  EXPECT_EQ(countLabel(t, "IntegerLiteral:1"), 3u);
}

TEST(Inliner, RecursionNotInlined) {
  auto tu = front("void r(int n) { if (n > 0) r(n - 1); }");
  const auto stats = inlineUnit(tu);
  EXPECT_EQ(stats.inlinedCalls, 0u);
}

TEST(Inliner, SystemFilesExcluded) {
  auto tu = front("void api() { magic(); }\nvoid user() { api(); }");
  InlineOptions opts;
  opts.systemFiles = {0}; // everything is "system" -> nothing inlines
  const auto stats = inlineUnit(tu, opts);
  EXPECT_EQ(stats.inlinedCalls, 0u);
}

TEST(Inliner, LibraryAbstractionJump) {
  // Paper: "for library-based models we see a huge jump in divergence as
  // foreign code is brought in"; for a pure-directive model nothing inlines.
  auto lib = front(
      "void launch(double* a, int n) { Kokkos::parallel_for(n, [=](int i) { a[i] = 0.0; }); }\n"
      "void run(double* a, int n) { launch(a, n); }");
  auto omp = front(R"(
    void run(double* a, int n) {
      #pragma omp parallel for
      for (int i = 0; i < n; i++) a[i] = 0.0;
    })");
  const auto libBefore = buildSemTree(lib).size();
  const auto ompBefore = buildSemTree(omp).size();
  inlineUnit(lib);
  inlineUnit(omp);
  const auto libAfter = buildSemTree(lib).size();
  const auto ompAfter = buildSemTree(omp).size();
  EXPECT_GT(libAfter, libBefore);
  EXPECT_EQ(ompAfter, ompBefore); // directives rely on the compiler: no change
}
