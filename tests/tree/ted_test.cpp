#include <gtest/gtest.h>

#include <random>
#include <string>

#include "bruteforce.hpp"
#include "tree/ted.hpp"
#include "tree/tedengine.hpp"
#include "tree/tedseam.hpp"

using namespace sv;
using namespace sv::tree;
using apted::seam::Isa;
using apted::seam::ScopedIsa;
using oracle::bruteTed;

namespace {

Tree randomTree(u32 seed, usize n) {
  std::mt19937 rng(seed);
  static const char *labels[] = {"Fn", "Call", "If", "For", "Decl", "BinOp", "Ref", "Lit"};
  auto t = Tree::leaf(labels[rng() % 8]);
  for (usize i = 1; i < n; ++i) {
    const NodeId parent = static_cast<NodeId>(rng() % t.size());
    t.addChild(parent, labels[rng() % 8]);
  }
  return t;
}

u64 tedZS(const Tree &a, const Tree &b) {
  return ted(a, b, TedOptions{TedAlgo::ZhangShasha, {}});
}
u64 tedAP(const Tree &a, const Tree &b) {
  return ted(a, b, TedOptions{TedAlgo::Apted, {}});
}

/// Same tree with every node's child order reversed. d(mir(a), mir(b)) ==
/// d(a, b): the edit-mapping constraints are symmetric under simultaneous
/// sibling reversal.
Tree mirrored(const Tree &t) {
  Tree out = Tree::leaf(t.node(0).label);
  // BFS copy with reversed child order; ids differ but structure mirrors.
  std::vector<std::pair<NodeId, NodeId>> queue{{0, 0}}; // (src, dst)
  for (usize q = 0; q < queue.size(); ++q) {
    const auto [src, dst] = queue[q];
    for (NodeId c = t.node(src).lastChild; c != kNoNode; c = t.node(c).prevSibling)
      queue.emplace_back(c, out.addChild(dst, t.node(c).label));
  }
  return out;
}

} // namespace

TEST(Ted, IdenticalTreesHaveZeroDistance) {
  const auto t = randomTree(1, 50);
  EXPECT_EQ(tedZS(t, t), 0u);
  EXPECT_EQ(tedAP(t, t), 0u);
}

TEST(Ted, EmptyVersusTree) {
  const Tree empty;
  const auto t = randomTree(2, 20);
  EXPECT_EQ(tedZS(empty, t), t.size());
  EXPECT_EQ(tedZS(t, empty), t.size());
  EXPECT_EQ(tedZS(empty, empty), 0u);
  EXPECT_EQ(tedAP(empty, t), t.size());
  EXPECT_EQ(tedAP(t, empty), t.size());
  EXPECT_EQ(tedAP(empty, empty), 0u);
}

TEST(Ted, AptedSingleNodes) {
  EXPECT_EQ(tedAP(Tree::leaf("A"), Tree::leaf("A")), 0u);
  EXPECT_EQ(tedAP(Tree::leaf("A"), Tree::leaf("B")), 1u);
  EXPECT_EQ(tedAP(Tree::leaf("A"), toTree(build("A", {build("x")}))), 1u);
}

TEST(Ted, SingleRelabel) {
  const auto a = toTree(build("A", {build("x"), build("y")}));
  const auto b = toTree(build("B", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
}

TEST(Ted, SingleLeafInsertion) {
  const auto a = toTree(build("A", {build("x")}));
  const auto b = toTree(build("A", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
  EXPECT_EQ(tedZS(b, a), 1u);
}

TEST(Ted, InnerNodeDeletionCostsOne) {
  // Deleting "Mid" reattaches its children: classic TED semantics.
  const auto a = toTree(build("R", {build("Mid", {build("x"), build("y")})}));
  const auto b = toTree(build("R", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
}

TEST(Ted, PaperFigure1DistanceIsFive) {
  // Fig 1: "four outlined nodes are inserted or deleted with one relabelled
  // node on the top". Modelled after the two ClangAST fragments shown:
  //   T1: FunctionDecl            T2: FunctionTemplateDecl
  //        └─ CompoundStmt              ├─ TemplateTypeParmDecl
  //            ├─ DeclStmt              └─ FunctionDecl
  //            └─ ReturnStmt                 └─ CompoundStmt
  //                                               └─ ReturnStmt
  // Edits: relabel the root (1), insert TemplateTypeParmDecl and
  // FunctionDecl (2), delete DeclStmt, and relabel/shift accounts for the
  // remaining ops — total 5.
  // The two deleted nodes live under the first child while the two inserted
  // nodes live under the second, so the ancestor-preservation constraint of
  // a valid edit mapping rules out converting them into cheap relabels.
  const auto t1 = toTree(
      build("FunctionDecl", {build("ParmVarDecl", {build("DeclRefExpr"), build("IntegerLiteral")}),
                             build("CompoundStmt")}));
  const auto t2 = toTree(build(
      "FunctionTemplateDecl",
      {build("ParmVarDecl"), build("CompoundStmt", {build("CallExpr"), build("ReturnStmt")})}));
  EXPECT_EQ(tedZS(t1, t2), 5u);
  EXPECT_EQ(tedAP(t1, t2), 5u);
}

TEST(Ted, DistanceBoundedByNodeSum) {
  const auto a = randomTree(3, 30);
  const auto b = randomTree(4, 45);
  const u64 d = tedZS(a, b);
  EXPECT_LE(d, a.size() + b.size());
  EXPECT_GE(d, static_cast<u64>(b.size() > a.size() ? b.size() - a.size()
                                                    : a.size() - b.size()));
}

TEST(Ted, UnitCostSymmetry) {
  const auto a = randomTree(5, 40);
  const auto b = randomTree(6, 25);
  EXPECT_EQ(tedZS(a, b), tedZS(b, a));
}

TEST(Ted, CustomCostsScaleOperations) {
  const auto a = toTree(build("A", {build("x")}));
  const auto b = toTree(build("A", {build("x"), build("y"), build("z")}));
  TedOptions opts;
  opts.costs.ins = 3;
  EXPECT_EQ(ted(a, b, opts), 6u); // two insertions at cost 3
  TedOptions del;
  del.costs.del = 5;
  EXPECT_EQ(ted(b, a, del), 10u); // two deletions at cost 5
}

TEST(Ted, RenameCostRespected) {
  const auto a = Tree::leaf("A");
  const auto b = Tree::leaf("B");
  TedOptions opts;
  opts.costs.rename = 7;
  // rename (7) still beats delete+insert (2)? No: unit del+ins = 2 < 7.
  EXPECT_EQ(ted(a, b, opts), 2u);
  opts.costs.del = 10;
  opts.costs.ins = 10;
  EXPECT_EQ(ted(a, b, opts), 7u);
}

// Property sweep: both algorithms must agree on randomly generated pairs,
// and metric axioms must hold under unit costs.
class TedPropertySweep : public ::testing::TestWithParam<u32> {};

// Every Apted distance runs under both kernel ISA variants.
TEST_P(TedPropertySweep, AlgorithmsAgreeAndAxiomsHold) {
  const u32 seed = GetParam();
  std::mt19937 rng(seed);
  const auto a = randomTree(seed * 2 + 1, 10 + rng() % 60);
  const auto b = randomTree(seed * 2 + 2, 10 + rng() % 60);
  const auto c = randomTree(seed * 2 + 3, 10 + rng() % 60);
  for (const Isa isa : {Isa::Native, Isa::Baseline}) {
    const ScopedIsa scoped(isa);

    const u64 ab = tedZS(a, b);
    EXPECT_EQ(ab, tedAP(a, b)) << "seed=" << seed;

    // Identity of indiscernibles (one direction) and symmetry.
    EXPECT_EQ(tedZS(a, a), 0u);
    EXPECT_EQ(ab, tedZS(b, a));
    EXPECT_EQ(ab, tedAP(b, a)) << "seed=" << seed;

    // Triangle inequality.
    const u64 bc = tedZS(b, c);
    const u64 ac = tedZS(a, c);
    EXPECT_LE(ac, ab + bc) << "seed=" << seed;

    // Mirror invariance: reversing sibling order in both trees preserves the
    // distance (the right-path kernels rely on exactly this symmetry).
    EXPECT_EQ(ab, tedAP(mirrored(a), mirrored(b))) << "seed=" << seed;

    // Injective relabel invariance: a bijection on the label alphabet leaves
    // every equal/unequal comparison, hence the distance, unchanged.
    const auto tag = [](std::string_view s) { return std::string(s) + "#t"; };
    EXPECT_EQ(ab, tedAP(a.relabel(tag), b.relabel(tag))) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, TedPropertySweep, ::testing::Range(0u, 24u));

TEST(Ted, LinearChainVsBushyTree) {
  // Chain a(b(c)) vs star a(b, c): mapping both b->b and c->c would violate
  // the ancestor-preservation constraint, so one node must be deleted and
  // re-inserted — distance 2.
  const auto chain = toTree(build("a", {build("b", {build("c")})}));
  const auto star = toTree(build("a", {build("b"), build("c")}));
  EXPECT_EQ(tedZS(chain, star), 2u);
  EXPECT_EQ(tedAP(chain, star), 2u);
}

TEST(Ted, SkewedTreeStrategiesAgree) {
  // A left-comb and a right-comb: worst case for one strategy each.
  auto leftComb = Tree::leaf("n");
  NodeId cur = 0;
  for (int i = 0; i < 100; ++i) {
    const auto inner = leftComb.addChild(cur, "n");
    leftComb.addChild(cur, "leaf");
    cur = inner;
  }
  auto rightComb = Tree::leaf("n");
  cur = 0;
  for (int i = 0; i < 100; ++i) {
    rightComb.addChild(cur, "leaf");
    cur = rightComb.addChild(cur, "n");
  }
  EXPECT_EQ(tedZS(leftComb, rightComb), tedAP(leftComb, rightComb));
}

TEST(Ted, StrategyCostNeverExceedsWholeTreeOrientations) {
  // The per-subtree-pair plan can only improve on a whole-tree pick: an
  // all-LeftA plan unrolls to exactly the Zhang–Shasha left decomposition
  // cost (the root keyroot sums), and likewise for the other uniform
  // choices.
  for (u32 seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    const auto a = randomTree(seed * 2 + 101, 10 + rng() % 80);
    const auto b = randomTree(seed * 2 + 102, 10 + rng() % 80);
    const auto ia = apted::buildIndex(a);
    const auto ib = apted::buildIndex(b);
    const auto strat = apted::computeStrategy(ia, ib);
    const u64 left = ia.krSumLeft[ia.n] * ib.krSumLeft[ib.n];
    const u64 right = ia.krSumRight[ia.n] * ib.krSumRight[ib.n];
    EXPECT_LE(strat.cost, std::min(left, right)) << "seed=" << seed;
    EXPECT_GT(strat.cost, 0u);
  }
}

TEST(Ted, RunCountersMatchStrategyCost) {
  // Without block reuse, the executed forest-DP cell count equals the
  // strategy DP's predicted subproblem total — the cost model is exact.
  const auto a = randomTree(41, 60);
  const auto b = randomTree(42, 70);
  const auto ia = apted::buildIndex(a);
  const auto ib = apted::buildIndex(b);
  const auto strat = apted::computeStrategy(ia, ib);
  apted::RunCounters rc;
  const u64 d = apted::run(ia, ib, strat, {}, /*reuseBlocks=*/false, &rc);
  EXPECT_EQ(d, tedZS(a, b));
  EXPECT_EQ(rc.subproblems[0] + rc.subproblems[1] + rc.subproblems[2] + rc.subproblems[3],
            strat.cost);
  EXPECT_EQ(rc.blockHits, 0u);
}

// ---------------------------------------------------------- cell width ---

namespace {

/// Costs near 2^31: every DP value overflows 32 bits, so `run` must pick
/// u64 cells for any pair.
TedCosts wideCosts(u32 seed) {
  return {0x7FFFFFF0u + seed, 0x80000007u - seed, 0x7FFFFFFFu + (seed % 3)};
}

/// The largest uniform cost at which an (n1 + n2)-node pair still runs on
/// u32 cells: 2 * (n1 + n2) * cost <= 2^32 - 1.
u32 largestNarrowCost(usize n1, usize n2) {
  return static_cast<u32>(u64{0xFFFFFFFFu} / (2 * (n1 + n2)));
}

} // namespace

TEST(TedCellWidth, WideCostsForceU64AndMatchZhangShasha) {
  for (u32 seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    const auto a = randomTree(seed * 2 + 201, 30 + rng() % 31);
    const auto b = randomTree(seed * 2 + 202, 30 + rng() % 31);
    const TedCosts costs = wideCosts(seed);
    ASSERT_EQ(apted::seam::cellBytes(a.size(), b.size(), costs), 8u);
    const u64 zs = ted(a, b, {TedAlgo::ZhangShasha, costs});
    EXPECT_GT(zs, u64{0xFFFFFFFFu}) << "seed=" << seed;
    EXPECT_EQ(ted(a, b, {TedAlgo::Apted, costs}), zs) << "seed=" << seed;
    TedEngine engine;
    EXPECT_EQ(engine.ted(a, b, {TedAlgo::Apted, costs}), zs) << "seed=" << seed;

    // Small pairs: both algorithms against the brute force.
    const auto sa = randomTree(seed * 2 + 301, 2 + rng() % 7);
    const auto sb = randomTree(seed * 2 + 302, 2 + rng() % 7);
    const u64 truth = bruteTed(sa, sb, costs);
    EXPECT_EQ(ted(sa, sb, {TedAlgo::ZhangShasha, costs}), truth) << "seed=" << seed;
    EXPECT_EQ(ted(sa, sb, {TedAlgo::Apted, costs}), truth) << "seed=" << seed;
  }
}

TEST(TedCellWidth, PairsAtTheNarrowWideCut) {
  // The same pair one cost step either side of the u32/u64 cut: the
  // narrow side's sums reach right up to 2^32 - 1.
  for (const auto &[na, nb] : {std::pair<usize, usize>{40, 55}, {7, 8}}) {
    const auto a = randomTree(static_cast<u32>(na) + 401, na);
    const auto b = randomTree(static_cast<u32>(nb) + 402, nb);
    const u32 cut = largestNarrowCost(na, nb);
    for (const u32 c : {cut, cut + 1}) {
      const TedCosts costs{c, c, c};
      EXPECT_EQ(apted::seam::cellBytes(na, nb, costs), c == cut ? 4u : 8u);
      const u64 zs = ted(a, b, {TedAlgo::ZhangShasha, costs});
      EXPECT_EQ(ted(a, b, {TedAlgo::Apted, costs}), zs) << na << "x" << nb << " cost=" << c;
      if (na <= 8 && nb <= 8) {
        EXPECT_EQ(bruteTed(a, b, costs), zs) << "cost=" << c;
      }
    }
    // One operation past the cut is enough to widen.
    EXPECT_EQ(apted::seam::cellBytes(na, nb, {cut, cut, cut + 1}), 8u);
  }
}

TEST(TedCellWidth, CutoffAbandonIsExactAtBothWidths) {
  for (const TedCosts &costs : {TedCosts{}, wideCosts(1)}) {
    u64 abandoned = 0;
    for (u32 seed = 0; seed < 6; ++seed) {
      std::mt19937 rng(seed);
      const auto a = randomTree(seed * 2 + 501, 30 + rng() % 31);
      const auto b = randomTree(seed * 2 + 502, 30 + rng() % 31);
      const u64 exact = ted(a, b, {TedAlgo::ZhangShasha, costs});
      for (const u64 cutoff : {u64{1}, exact / 2, exact - 1, exact, exact + 1, 2 * exact}) {
        const u64 want = std::min(exact, cutoff);
        const TedOptions opts{TedAlgo::Apted, costs, true, cutoff};
        EXPECT_EQ(ted(a, b, opts), want) << "seed=" << seed << " cutoff=" << cutoff;
        TedEngine engine; // fresh: no memo entry answers for the DP
        EXPECT_EQ(engine.ted(a, b, opts), want) << "seed=" << seed << " cutoff=" << cutoff;
        if (cutoff < exact) abandoned += engine.stats().prunedByCutoff;
      }
    }
    // The kernel's own abandon ran (not only the signature bound).
    EXPECT_GT(abandoned, 0u) << "cell bytes " << apted::seam::cellBytes(45, 45, costs);
  }
}

TEST(TedKernelIsa, BaselineMatchesNativeCellForCell) {
  for (const TedCosts &costs : {TedCosts{}, TedCosts{2, 3, 4}, wideCosts(2)}) {
    for (u32 seed = 0; seed < 6; ++seed) {
      std::mt19937 rng(seed);
      const auto a = randomTree(seed * 2 + 601, 10 + rng() % 70);
      const auto b = randomTree(seed * 2 + 602, 10 + rng() % 70);
      const auto ia = apted::buildIndex(a);
      const auto ib = apted::buildIndex(b);
      std::vector<u64> native, baseline;
      {
        const ScopedIsa scoped(Isa::Native);
        native = apted::seam::tdTable(ia, ib, costs);
      }
      {
        const ScopedIsa scoped(Isa::Baseline);
        baseline = apted::seam::tdTable(ia, ib, costs);
      }
      ASSERT_EQ(native.size(), (a.size() + 1) * (b.size() + 1));
      EXPECT_EQ(native, baseline) << "seed=" << seed;
      EXPECT_EQ(native.back(), ted(a, b, {TedAlgo::ZhangShasha, costs})) << "seed=" << seed;
    }
  }
}
