// Value-range engine units: Interval lattice algebra (saturating
// arithmetic, join/meet/widen), widening convergence over the loop shapes
// that historically defeat naive interval iteration (nested loops,
// non-unit strides, decreasing induction), branch-refinement narrowing,
// interprocedural summaries, and the SSA overlay's verify + print
// round-trip stability that rangelint and the deps tier build on.
#include <gtest/gtest.h>

#include "fuzz/irtext.hpp"
#include "ir/ir.hpp"
#include "ir/lower.hpp"
#include "ir/range.hpp"
#include "ir/ssa.hpp"
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

const Function *fnNamed(const Module &m, const std::string &name) {
  for (const auto &f : m.functions)
    if (f.name == name) return &f;
  return nullptr;
}

/// What the widening tests read of one function's standalone analysis.
struct RangeSummary {
  Interval returnRange;
  usize rounds = 0;
};

/// Range results for the one user function of a single-function source.
RangeSummary rangesOf(const std::string &src, const std::string &name) {
  const Module m = lowerSrc(src);
  const Function *fn = fnNamed(m, name);
  EXPECT_NE(fn, nullptr) << name << " not lowered";
  if (!fn) return {};
  const FunctionFacts facts(*fn);
  const FunctionRanges fr = analyzeRanges(facts);
  return {fr.returnRange, fr.rounds};
}

} // namespace

// ------------------------------------------------------ interval algebra --

TEST(Interval, ConstructorsAndPredicates) {
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::none().bot);
  EXPECT_TRUE(Interval::of(7).isConst());
  EXPECT_TRUE(Interval::of(3, 1).bot); // empty range collapses to bottom
  EXPECT_TRUE(Interval::of(-2, 5).contains(0));
  EXPECT_FALSE(Interval::of(-2, 5).contains(6));
  EXPECT_TRUE(Interval::of(1, 2).inside(Interval::of(0, 3)));
  EXPECT_FALSE(Interval::of(1, 4).inside(Interval::of(0, 3)));
  EXPECT_TRUE(Interval::none().inside(Interval::of(0, 0)));
}

TEST(Interval, JoinMeetWiden) {
  const auto a = Interval::of(0, 4);
  const auto b = Interval::of(2, 9);
  EXPECT_EQ(a.join(b), Interval::of(0, 9));
  EXPECT_EQ(a.meet(b), Interval::of(2, 4));
  EXPECT_EQ(a.join(Interval::none()), a);
  EXPECT_TRUE(a.meet(Interval::of(6, 8)).bot);
  // Widening: only the bound that moved versus prev jumps to infinity.
  const auto w = Interval::of(0, 9).widen(Interval::of(0, 4));
  EXPECT_EQ(w.lo, 0);
  EXPECT_FALSE(w.hasHi());
  const auto wl = Interval::of(-3, 4).widen(Interval::of(0, 4));
  EXPECT_FALSE(wl.hasLo());
  EXPECT_EQ(wl.hi, 4);
}

TEST(Interval, SaturatingArithmetic) {
  EXPECT_EQ(Interval::of(1, 2).add(Interval::of(10, 20)), Interval::of(11, 22));
  EXPECT_EQ(Interval::of(1, 2).sub(Interval::of(1, 1)), Interval::of(0, 1));
  EXPECT_EQ(Interval::of(-2, 3).mul(Interval::of(4)), Interval::of(-8, 12));
  // Overflow saturates to the sentinel instead of wrapping.
  const auto big = Interval::of(Interval::kMax - 1, Interval::kMax - 1);
  EXPECT_FALSE(big.add(Interval::of(5)).hasHi());
  EXPECT_FALSE(big.mul(big).hasHi());
  // Division by a range spanning zero gives up rather than faulting.
  EXPECT_TRUE(Interval::of(10).sdiv(Interval::of(-1, 1)).contains(10));
  EXPECT_EQ(Interval::of(7, 15).sdiv(Interval::of(2)), Interval::of(3, 7));
  const auto r = Interval::of(0, 100).srem(Interval::of(8));
  EXPECT_TRUE(Interval::of(0, 7).inside(r));
}

TEST(Interval, Render) {
  EXPECT_EQ(Interval::of(3).str(), "[3, 3]");
  EXPECT_EQ(Interval::top().str(), "[-inf, inf]");
  EXPECT_EQ(Interval::none().str(), "none");
}

// -------------------------------------------------- widening convergence --

TEST(RangeWidening, CountedLoopNarrowsToTripBounds) {
  // i widens to [0, inf] during iteration; the `i < 8` refinement plus the
  // narrowing rounds must pull the body value back to [0, 7].
  const auto fr = rangesOf("int f() {\n"
                           "  int last = 0;\n"
                           "  for (int i = 0; i < 8; ++i) { last = i; }\n"
                           "  return last;\n"
                           "}\n",
                           "@f");
  EXPECT_EQ(fr.returnRange, Interval::of(0, 7));
}

TEST(RangeWidening, NestedLoopsConverge) {
  // Two nested widening points; the fixpoint must terminate in a handful
  // of rounds and keep the refined inner bound.
  const auto fr = rangesOf("int f() {\n"
                           "  int last = 0;\n"
                           "  for (int i = 0; i < 8; ++i) {\n"
                           "    for (int j = 0; j < 4; ++j) { last = i + j; }\n"
                           "  }\n"
                           "  return last;\n"
                           "}\n",
                           "@f");
  EXPECT_LE(fr.rounds, 16u);
  EXPECT_EQ(fr.returnRange, Interval::of(0, 10)); // 7 + 3
}

TEST(RangeWidening, NonUnitStrideKeepsUpperBound) {
  // Interval analysis cannot see the stride, but the `i < 100` guard still
  // bounds the body value to [0, 99].
  const auto fr = rangesOf("int f() {\n"
                           "  int last = 0;\n"
                           "  for (int i = 0; i < 100; i = i + 3) { last = i; }\n"
                           "  return last;\n"
                           "}\n",
                           "@f");
  EXPECT_EQ(fr.returnRange, Interval::of(0, 99));
}

TEST(RangeWidening, DecreasingInductionConverges) {
  // The moving bound is the *lower* one; `i > 0` refinement restores it.
  const auto fr = rangesOf("int f() {\n"
                           "  int last = 0;\n"
                           "  for (int i = 10; i > 0; --i) { last = i; }\n"
                           "  return last;\n"
                           "}\n",
                           "@f");
  EXPECT_LE(fr.rounds, 16u);
  EXPECT_EQ(fr.returnRange, Interval::of(0, 10));
}

TEST(RangeWidening, UnboundedLoopWidensButTerminates) {
  // No usable guard: the accumulator legitimately reaches [0, inf]. The
  // point of this test is termination plus the preserved lower bound.
  const auto fr = rangesOf("int f(int n) {\n"
                           "  int s = 0;\n"
                           "  for (int i = 0; i < n; ++i) { s = s + 1; }\n"
                           "  return s;\n"
                           "}\n",
                           "@f");
  EXPECT_LE(fr.rounds, 16u);
  EXPECT_EQ(fr.returnRange.lo, 0);
  EXPECT_FALSE(fr.returnRange.hasHi());
}

// ------------------------------------------------------- interprocedural --

TEST(RangeInterproc, CalleeReturnAndArgumentSummariesPropagate) {
  const Module m = lowerSrc("int bound() { return 8; }\n"
                            "int scale(int k) { return k * 2; }\n"
                            "int f() { return scale(bound()); }\n");
  const ModuleFacts facts(m);
  const ModuleRanges mr = analyzeModuleRanges(facts);
  const auto *scale = mr.rangesOf("@scale");
  ASSERT_NE(scale, nullptr);
  // scale is only ever called with bound()'s result: arg 0 is [8, 8].
  ASSERT_EQ(scale->argRanges.size(), 1u);
  EXPECT_EQ(scale->argRanges[0], Interval::of(8));
  EXPECT_EQ(scale->returnRange, Interval::of(16));
  const auto *f = mr.rangesOf("@f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->returnRange, Interval::of(16));
}

TEST(RangeInterproc, RecursionWidensToTop) {
  const Module m = lowerSrc("int down(int n) {\n"
                            "  if (n < 1) { return 0; }\n"
                            "  return down(n - 1);\n"
                            "}\n");
  const ModuleFacts facts(m);
  const ModuleRanges mr = analyzeModuleRanges(facts);
  const auto *down = mr.rangesOf("@down");
  ASSERT_NE(down, nullptr);
  ASSERT_EQ(down->argRanges.size(), 1u);
  EXPECT_TRUE(down->argRanges[0].isTop());
}

// --------------------------------------------- ssa verify and round-trip --

namespace {

/// Build + verify the overlay for every user function; returns total phis.
usize verifyModuleSsa(const Module &m) {
  usize phis = 0;
  const ModuleFacts facts(m);
  for (const auto &ff : facts.functions()) {
    if (ff.function().role == FunctionRole::Runtime) continue;
    const auto violations = verifySsa(ff.ssa(), ff.cfg());
    EXPECT_TRUE(violations.empty())
        << ff.function().name << ": " << (violations.empty() ? "" : violations.front());
    phis += ff.ssa().phiCount();
  }
  return phis;
}

} // namespace

TEST(RangeSsa, OverlayVerifiesAndSurvivesPrintRoundTrip) {
  // SSA is an overlay: building it must not perturb ir::print, and the
  // reparsed module must yield a structurally identical, valid overlay.
  const char *src = "int f(int n) {\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < n; ++i) {\n"
                    "    if (i > 4) { s = s + 2; } else { s = s + 1; }\n"
                    "  }\n"
                    "  return s;\n"
                    "}\n";
  const Module m = lowerSrc(src);
  const std::string before = print(m);
  const usize phis = verifyModuleSsa(m);
  EXPECT_GE(phis, 2u); // loop-header merges for s and i at least
  EXPECT_EQ(print(m), before) << "buildSsa mutated the module";

  const Module reparsed = fuzz::parseIrText(before);
  EXPECT_EQ(verifyModuleSsa(reparsed), phis);
  EXPECT_EQ(print(reparsed), before);
}

TEST(RangeSsa, LoadsMapToReachingStores) {
  const Module m = lowerSrc("int f(int k) {\n"
                            "  int x = 3;\n"
                            "  if (k > 0) { x = 5; }\n"
                            "  return x;\n"
                            "}\n");
  const Function *fn = fnNamed(m, "@f");
  ASSERT_NE(fn, nullptr);
  const FunctionFacts facts(*fn);
  EXPECT_TRUE(verifySsa(facts.ssa(), facts.cfg()).empty());
  // The merged return value must read through a phi joining both stores.
  EXPECT_GE(facts.ssa().phiCount(), 1u);
  const FunctionRanges fr = analyzeRanges(facts);
  EXPECT_EQ(fr.returnRange, Interval::of(3, 5));
}
