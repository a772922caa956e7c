// Lower-bound admissibility, the cutoff contract, signature persistence
// and the pair memo's record of cutoff outcomes — the tree-layer half of
// the metric-space query layer's correctness story.
#include <gtest/gtest.h>

#include <random>

#include "tree/tedbounds.hpp"
#include "tree/tedengine.hpp"

using namespace sv;
using namespace sv::tree;

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

u64 exactTed(const Tree &a, const Tree &b, const TedCosts &costs = {}) {
  TedOptions opts;
  opts.useCache = false;
  opts.costs = costs;
  return ted(a, b, opts);
}

} // namespace

TEST(TedBounds, IdenticalTreesBoundToZero) {
  const auto t = randomTree(1, 60);
  const auto sig = boundSignature(t);
  EXPECT_EQ(tedLowerBound(sig, sig, {}), 0u);
  EXPECT_EQ(sizeLowerBound(sig.n, sig.n, {}), 0u);
  EXPECT_EQ(histogramLowerBound(sig, sig, {}), 0u);
  EXPECT_EQ(profileLowerBound(sig, sig, {}), 0u);
}

TEST(TedBounds, SizeBoundHandcrafted) {
  // 5 nodes vs 2 nodes: at least 3 deletions.
  const auto a = randomTree(2, 5);
  const auto b = randomTree(3, 2);
  EXPECT_EQ(sizeLowerBound(5, 2, {}), 3u);
  EXPECT_LE(sizeLowerBound(5, 2, {}), exactTed(a, b));
  // Asymmetric costs: shrinking from 5 to 2 forces deletions (cost 7 each).
  const TedCosts costly{7, 2, 1};
  EXPECT_EQ(sizeLowerBound(5, 2, costly), 21u);
  EXPECT_EQ(sizeLowerBound(2, 5, costly), 6u); // growing forces insertions
}

TEST(TedBounds, HistogramBoundSeesRelabels) {
  // Same shape, all labels different: the size bound is 0 but every node
  // must be renamed (or churned); the histogram bound sees it.
  auto a = Tree::leaf("A");
  a.addChild(0, "B");
  a.addChild(0, "C");
  auto b = Tree::leaf("X");
  b.addChild(0, "Y");
  b.addChild(0, "Z");
  const auto sa = boundSignature(a), sb = boundSignature(b);
  EXPECT_EQ(sizeLowerBound(sa.n, sb.n, {}), 0u);
  EXPECT_EQ(histogramLowerBound(sa, sb, {}), 3u);
  EXPECT_EQ(exactTed(a, b), 3u);
}

TEST(TedBounds, AdmissibleOnRandomPairs) {
  for (u32 seed = 1; seed <= 15; ++seed) {
    const auto a = randomTree(seed, 10 + seed * 3);
    const auto b = randomTree(seed + 100, 8 + seed * 4);
    const auto sa = boundSignature(a), sb = boundSignature(b);
    for (const TedCosts &costs : {TedCosts{}, TedCosts{2, 3, 1}, TedCosts{1, 1, 5}}) {
      const u64 exact = exactTed(a, b, costs);
      EXPECT_LE(sizeLowerBound(sa.n, sb.n, costs), exact) << "seed " << seed;
      EXPECT_LE(histogramLowerBound(sa, sb, costs), exact) << "seed " << seed;
      EXPECT_LE(profileLowerBound(sa, sb, costs), exact) << "seed " << seed;
      EXPECT_LE(tedLowerBound(sa, sb, costs), exact) << "seed " << seed;
    }
  }
}

TEST(TedBounds, LowerBoundIsMaxOfThree) {
  const auto a = randomTree(7, 40);
  const auto b = randomTree(8, 25);
  const auto sa = boundSignature(a), sb = boundSignature(b);
  const TedCosts costs{};
  const u64 expected = std::max({sizeLowerBound(sa.n, sb.n, costs),
                                 histogramLowerBound(sa, sb, costs),
                                 profileLowerBound(sa, sb, costs)});
  EXPECT_EQ(tedLowerBound(sa, sb, costs), expected);
}

TEST(TedBounds, CutoffReturnsMinOfExactAndCutoff) {
  for (u32 seed = 1; seed <= 8; ++seed) {
    const auto a = randomTree(seed, 12 + seed * 4);
    const auto b = randomTree(seed + 50, 10 + seed * 5);
    const u64 exact = exactTed(a, b);
    for (const u64 cutoff : {u64{1}, exact / 2 + 1, exact, exact + 1, exact + 10}) {
      if (cutoff == 0) continue;
      const u64 want = std::min(exact, cutoff);
      for (const auto algo : {TedAlgo::Apted, TedAlgo::ZhangShasha}) {
        TedOptions opts;
        opts.algo = algo;
        opts.useCache = false;
        opts.cutoff = cutoff;
        EXPECT_EQ(ted(a, b, opts), want)
            << "seed " << seed << " cutoff " << cutoff << " algo " << static_cast<int>(algo);
      }
      TedOptions on;
      on.cutoff = cutoff;
      EXPECT_EQ(tedDispatch(a, b, on), want) << "seed " << seed << " cutoff " << cutoff;
    }
  }
}

TEST(TedBounds, EngineCutoffParityAndStatBuckets) {
  TedEngine engine;
  const auto a = randomTree(21, 40);
  const auto b = randomTree(22, 38);
  const u64 exact = exactTed(a, b);
  ASSERT_GT(exact, 2u);

  // Tight cutoff equal to the signature bound: no TED entry point checks
  // bounds (only the query layer does), so the DP runs and resolves at the
  // ceiling, as do uncached Apted and Zhang-Shasha.
  const u64 lb = tedLowerBound(boundSignature(a), boundSignature(b), {});
  ASSERT_GT(lb, 0u);
  ASSERT_LT(lb, exact);
  TedOptions tight;
  tight.cutoff = lb;
  EXPECT_EQ(engine.ted(a, b, tight), lb);
  EXPECT_EQ(engine.stats().prunedByCutoff, 1u);
  EXPECT_EQ(engine.stats().prunedByBound, 0u);
  EXPECT_EQ(engine.stats().memoMisses, 1u); // the DP ran
  for (const auto algo : {TedAlgo::Apted, TedAlgo::ZhangShasha}) {
    TedOptions uncached = tight;
    uncached.algo = algo;
    uncached.useCache = false;
    EXPECT_EQ(ted(a, b, uncached), lb) << "algo " << static_cast<int>(algo);
  }

  // Mid cutoff: above the bound the memo recorded, so the DP runs again and
  // resolves at the ceiling.
  TedOptions mid;
  mid.cutoff = exact; // exact >= cutoff, so the result is the cutoff
  EXPECT_EQ(engine.ted(a, b, mid), exact);
  EXPECT_EQ(engine.stats().prunedByCutoff, 2u);

  // Loose cutoff: completes exactly, is memoised, and a later exact query
  // replays it from the memo.
  TedOptions loose;
  loose.cutoff = exact + 5;
  EXPECT_EQ(engine.ted(a, b, loose), exact);
  EXPECT_EQ(engine.stats().cutoffExact, 1u);
  const u64 memoHitsBefore = engine.stats().memoHits;
  EXPECT_EQ(engine.ted(a, b, {}), exact);
  EXPECT_EQ(engine.stats().memoHits, memoHitsBefore + 1);
  EXPECT_EQ(engine.stats().prunedByBound, 0u);
}

TEST(TedBounds, PairMemoRecordsEveryDpOutcome) {
  // The pair memo keeps what every DP proved: an abandoned run at cutoff c
  // stores the lower bound c, which answers any later cutoff <= c without a
  // DP; a higher cutoff or an exact request runs the DP again. Every DP
  // computes its own strategy, so strategyMisses counts DP runs.
  TedEngine engine;
  const auto a = randomTree(31, 45);
  const auto b = randomTree(32, 40);
  const auto zs = [](const Tree &x, const Tree &y, const TedCosts &costs, u64 cutoff) {
    TedOptions opts{TedAlgo::ZhangShasha, costs};
    opts.cutoff = cutoff;
    return ted(x, y, opts);
  };
  const auto kernels = [&engine] {
    const auto s = engine.stats();
    return s.spfKernels[0] + s.spfKernels[1] + s.spfKernels[2] + s.spfKernels[3];
  };
  u64 dpRuns = 0;
  const auto query = [&](const Tree &x, const Tree &y, const TedCosts &costs, u64 cutoff) {
    TedOptions opts;
    opts.costs = costs;
    opts.cutoff = cutoff;
    const auto before = engine.stats();
    const u64 got = engine.ted(x, y, opts);
    EXPECT_EQ(got, zs(x, y, costs, cutoff)) << "cutoff " << cutoff;
    const auto after = engine.stats();
    dpRuns += after.strategyMisses - before.strategyMisses;
    return after.memoHits - before.memoHits;
  };

  const u64 exact = zs(a, b, {}, 0);
  const u64 lb = tedLowerBound(boundSignature(a), boundSignature(b), {});
  ASSERT_LT(lb + 2, exact);
  const u64 c = exact - 1; // above the signature bound, so the DP runs

  EXPECT_EQ(query(a, b, {}, c), 0u);
  EXPECT_EQ(engine.stats().prunedByCutoff, 1u);
  EXPECT_EQ(dpRuns, 1u);

  // Cutoffs <= c, in either direction, are answered by the recorded bound.
  const u64 kernelsBefore = kernels();
  EXPECT_EQ(query(a, b, {}, c), 1u);
  EXPECT_EQ(query(b, a, {}, c - 1), 1u);
  EXPECT_EQ(query(a, b, {}, lb + 1), 1u);
  EXPECT_EQ(kernels(), kernelsBefore);
  EXPECT_EQ(dpRuns, 1u);

  // A higher cutoff runs the DP; so does an exact request, whose result
  // replaces the bound and then answers every later query.
  EXPECT_EQ(query(a, b, {}, c + 1), 0u);
  EXPECT_EQ(dpRuns, 2u);
  EXPECT_EQ(query(b, a, {}, 0), 0u);
  EXPECT_EQ(dpRuns, 3u);
  EXPECT_EQ(query(a, b, {}, 0), 1u);
  EXPECT_EQ(query(a, b, {}, exact + 5), 1u);

  // Weighted costs are a separate memo entry. The reversed direction with
  // del/ins swapped is the same entry; with the same weights it is not.
  const TedCosts weighted{2, 3, 1};
  EXPECT_EQ(query(a, b, weighted, 0), 0u);
  EXPECT_EQ(query(b, a, TedCosts{3, 2, 1}, 0), 1u);
  EXPECT_EQ(query(b, a, weighted, 0), 0u);
  EXPECT_EQ(dpRuns, 5u);

  const auto s = engine.stats();
  EXPECT_EQ(s.strategyMisses, dpRuns);
  EXPECT_EQ(s.memoMisses, dpRuns);
}
