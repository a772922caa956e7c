// The dependence tier's structural layer: natural-loop recovery over
// irreducible and break-heavy CFGs, induction recognition, the subscript
// tests' proven/assumed split, and the call graph's mod/ref summaries —
// including the recursive cycles that must widen instead of iterating.
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/callgraph.hpp"
#include "ir/deps.hpp"
#include "ir/lower.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"

using namespace sv;
using namespace sv::ir;

namespace {
lang::SourceManager gSm;

Module lowerSrc(const std::string &src, Model model = Model::Serial) {
  auto tu = minic::parseTranslationUnit(minic::lex(src, 0), "t.cpp", gSm);
  minic::analyse(tu);
  LowerOptions opts;
  opts.model = model;
  return lower(tu, opts);
}

Instr instr(std::string op, std::string type, std::string result,
            std::vector<std::string> operands) {
  Instr in;
  in.op = std::move(op);
  in.type = std::move(type);
  in.result = std::move(result);
  in.operands = std::move(operands);
  return in;
}

const FunctionDeps *fnDeps(const ModuleDeps &m, const std::string &name) {
  for (const auto &f : m.functions)
    if (f.function == name) return &f;
  return nullptr;
}

const LoopInfo *loopAt(const FunctionDeps &fd, i32 line) {
  for (const auto &L : fd.loops)
    if (L.line == line) return &L;
  return nullptr;
}

} // namespace

// -------------------------------------------------------- loop recovery --

TEST(DepsLoops, IrreducibleCycleYieldsNoLoops) {
  // entry branches into the *middle* of an a<->b cycle: neither block
  // dominates the other, so there is no natural-loop header. The recovery
  // must return nothing rather than fabricate a loop (or spin).
  Function f;
  f.name = "@f";
  f.returnType = "void";
  f.blocks.push_back({"entry",
                      {instr("icmp", "i1", "%0", {"lt", "const:1", "const:2"}),
                       instr("condbr", "void", "", {"%0", "label:a", "label:b"})}});
  f.blocks.push_back({"a", {instr("br", "void", "", {"label:b"})}});
  f.blocks.push_back({"b",
                      {instr("icmp", "i1", "%1", {"lt", "const:1", "const:2"}),
                       instr("condbr", "void", "", {"%1", "label:a", "label:end"})}});
  f.blocks.push_back({"end", {instr("ret", "void", "", {})}});
  const auto loops = findLoops(FunctionFacts(f));
  EXPECT_TRUE(loops.empty());
}

TEST(DepsLoops, BreakHeavyLoopRecoveredIntact) {
  // Two early exits out of one loop: the natural loop is multi-exit but its
  // body must still be recovered whole, induction included.
  const auto m = lowerSrc("int f(int n) {\n"
                          "  int s = 0;\n"
                          "  for (int i = 0; i < 100; ++i) {\n"
                          "    if (i > n) break;\n"
                          "    if (s > 50) break;\n"
                          "    s = s + i;\n"
                          "  }\n"
                          "  return s;\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  const auto &L = fd->loops[0];
  EXPECT_EQ(L.depth, 0u);
  EXPECT_TRUE(L.affine);
  EXPECT_EQ(L.step, 1);
  // The breaks add exit edges; the body still contains both `if` arms.
  EXPECT_GE(L.blocks.size(), 4u);
}

TEST(DepsLoops, NestedLoopsGetDepthsAndTripCounts) {
  const auto m = lowerSrc("void f(double* a) {\n"
                          "  for (int i = 0; i < 8; ++i) {\n"
                          "    for (int j = 0; j < 4; ++j) {\n"
                          "      a[j] = a[j] + 1.0;\n"
                          "    }\n"
                          "  }\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 2u);
  const auto outerIt = std::find_if(fd->loops.begin(), fd->loops.end(),
                                    [](const LoopInfo &L) { return L.depth == 0; });
  const auto innerIt = std::find_if(fd->loops.begin(), fd->loops.end(),
                                    [](const LoopInfo &L) { return L.depth == 1; });
  ASSERT_NE(outerIt, fd->loops.end());
  ASSERT_NE(innerIt, fd->loops.end());
  EXPECT_EQ(outerIt->tripCount.value_or(0), 8);
  EXPECT_EQ(innerIt->tripCount.value_or(0), 4);
  EXPECT_TRUE(outerIt->contains(innerIt->header));
}

// ------------------------------------------------------ subscript tests --

TEST(DepsTests, ShiftedWriteProvenCarriedFlow) {
  const auto m = lowerSrc("void f(double* a, int n) {\n"
                          "  for (int i = 1; i < n; ++i) {\n"
                          "    a[i] = a[i - 1] + 1.0;\n"
                          "  }\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  const auto &L = fd->loops[0];
  EXPECT_FALSE(L.provablyParallel);
  const auto it = std::find_if(L.deps.begin(), L.deps.end(), [](const ArrayDependence &d) {
    return d.proven && d.carried && d.kind == DepKind::Flow;
  });
  ASSERT_NE(it, L.deps.end());
  EXPECT_EQ(it->distance.value_or(0), 1);
  EXPECT_EQ(it->direction, DepDirection::Lt);
}

TEST(DepsTests, ElementwiseLoopProvablyParallel) {
  const auto m = lowerSrc("void f(double* a, double* b, int n) {\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    a[i] = b[i] * 2.0;\n"
                          "  }\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  EXPECT_TRUE(fd->loops[0].analyzable);
  EXPECT_TRUE(fd->loops[0].provablyParallel);
}

TEST(DepsTests, ScalarReductionClassified) {
  const auto m = lowerSrc("double f(double* a, int n) {\n"
                          "  double s = 0.0;\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    s += a[i];\n"
                          "  }\n"
                          "  return s;\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  const auto &L = fd->loops[0];
  const auto it = std::find_if(L.scalars.begin(), L.scalars.end(), [](const ScalarUse &s) {
    return s.cls == ScalarClass::Reduction;
  });
  ASSERT_NE(it, L.scalars.end());
  EXPECT_EQ(it->op, "+");
  EXPECT_TRUE(L.provablyParallel); // reduction scalars do not block the verdict
}

TEST(DepsTests, CarriedScalarBlocksParallelVerdict) {
  // `t` is read before it is written each iteration: upward-exposed, so the
  // loop is not provably parallel even though the array accesses are clean.
  const auto m = lowerSrc("double f(double* a, int n) {\n"
                          "  double t = 0.0;\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    a[i] = t;\n"
                          "    t = a[i] + 1.0;\n"
                          "  }\n"
                          "  return t;\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  const auto &L = fd->loops[0];
  EXPECT_FALSE(L.provablyParallel);
  const auto it = std::find_if(L.scalars.begin(), L.scalars.end(), [](const ScalarUse &s) {
    return s.cls == ScalarClass::Carried;
  });
  EXPECT_NE(it, L.scalars.end());
}

// ---------------------------------------------------- mod/ref summaries --

TEST(DepsCallGraph, ChainPropagatesArgModPrecisely) {
  // leaf writes through its pointer formal; mid forwards its own formal.
  // The summary must carry argMod {0} up the chain without widening.
  const auto m = lowerSrc("void leaf(double* p) { p[0] = 1.0; }\n"
                          "void mid(double* q) { leaf(q); }\n"
                          "int main() { double a[4]; mid(a); return 0; }\n");
  const auto cg = buildCallGraph(m);
  const auto *leaf = cg.summaryOf("@leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_FALSE(leaf->opaque);
  EXPECT_EQ(leaf->argMod, (std::set<usize>{0}));
  const auto *mid = cg.summaryOf("@mid");
  ASSERT_NE(mid, nullptr);
  EXPECT_FALSE(mid->opaque);
  EXPECT_FALSE(mid->capturesUnknown);
  EXPECT_EQ(mid->argMod, (std::set<usize>{0}));
}

TEST(DepsCallGraph, RecursiveCycleWidensAndTerminates) {
  // A hand-built mutual recursion a <-> b plus a self-recursive c: every
  // member must widen to the lattice top (opaque) in finite time.
  Module m;
  const auto mkFn = [](const std::string &name, const std::string &callee) {
    Function f;
    f.name = name;
    f.returnType = "void";
    f.blocks.push_back({"entry",
                        {instr("call", "void", "", {callee}),
                         instr("ret", "void", "", {})}});
    return f;
  };
  m.functions.push_back(mkFn("@a", "@b"));
  m.functions.push_back(mkFn("@b", "@a"));
  m.functions.push_back(mkFn("@c", "@c"));
  const auto cg = buildCallGraph(m);
  for (const auto *name : {"@a", "@b", "@c"}) {
    const auto *s = cg.summaryOf(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_TRUE(s->opaque) << name;
  }
  // And the dependence tier degrades conservatively rather than crashing: a
  // loop calling into the cycle is simply not analyzable.
  Function caller;
  caller.name = "@loop";
  caller.returnType = "void";
  caller.blocks.push_back({"entry", {instr("alloca", "ptr", "%i", {}),
                                     instr("store", "void", "", {"const:0", "%i"}),
                                     instr("br", "void", "", {"label:head"})}});
  caller.blocks.push_back(
      {"head",
       {instr("load", "i32", "%0", {"%i"}),
        instr("icmp", "i1", "%1", {"lt", "%0", "const:4"}),
        instr("condbr", "void", "", {"%1", "label:body", "label:end"})}});
  caller.blocks.push_back({"body",
                           {instr("call", "void", "", {"@a"}),
                            instr("load", "i32", "%2", {"%i"}),
                            instr("add", "i32", "%3", {"%2", "const:1"}),
                            instr("store", "void", "", {"%3", "%i"}),
                            instr("br", "void", "", {"label:head"})}});
  caller.blocks.push_back({"end", {instr("ret", "void", "", {})}});
  Module m2 = m;
  m2.functions.push_back(caller);
  const auto deps = analyzeModule(m2);
  const auto *fd = fnDeps(deps, "@loop");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  EXPECT_FALSE(fd->loops[0].analyzable);
  EXPECT_FALSE(fd->loops[0].provablyParallel);
}

TEST(DepsCallGraph, PureExternalsStayPure) {
  const auto m = lowerSrc("double f(double x) { return fabs(x); }\n");
  const auto cg = buildCallGraph(m);
  const auto *s = cg.summaryOf("@f");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->pure());
}

TEST(DepsCallGraph, SummarisedCalleeKeepsLoopAnalyzable) {
  // The whole point of the bottom-up summaries: a loop calling a helper
  // with a known effect set stays analyzable instead of going unknown.
  const auto m = lowerSrc("double sq(double x) { return x * x; }\n"
                          "void f(double* a, int n) {\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    a[i] = sq(a[i]);\n"
                          "  }\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  EXPECT_TRUE(fd->loops[0].analyzable);
  EXPECT_TRUE(fd->loops[0].provablyParallel);
}

TEST(DepsLoops, LoopLineSurvivesIntoReport) {
  const auto m = lowerSrc("void f(double* a, int n) {\n"
                          "  for (int i = 0; i < n; ++i) {\n"
                          "    a[i] = 0.0;\n"
                          "  }\n"
                          "}\n");
  const auto deps = analyzeModule(m);
  const auto *fd = fnDeps(deps, "@f");
  ASSERT_NE(fd, nullptr);
  ASSERT_EQ(fd->loops.size(), 1u);
  EXPECT_NE(loopAt(*fd, fd->loops[0].line), nullptr);
  EXPECT_GT(fd->loops[0].line, 0);
}
