// Property suite for the shared-view TED engine: the cached path must be
// byte-identical to the uncached tree::ted() reference on every input, the
// fingerprint short-circuits must fire where promised, and the global
// engine must survive concurrent hammering (the divergenceMatrix pairs run
// under parallelFor).
#include <gtest/gtest.h>

#include <random>

#include "support/parallel.hpp"
#include "tree/tedengine.hpp"
#include "tree/tedseam.hpp"

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

/// A tree that repeats the same grafted subtree several times — the shape
/// that exercises the subtree-pair TD reuse (shared boilerplate repeated
/// within a unit).
Tree treeWithDuplicates(u32 seed, usize stamp, usize copies) {
  auto t = randomTree(seed, 12);
  const auto shared = randomTree(seed + 1000, stamp);
  std::mt19937 rng(seed + 7);
  for (usize i = 0; i < copies; ++i)
    t.graft(static_cast<NodeId>(rng() % t.size()), shared);
  return t;
}

} // namespace

TEST(TedEngine, IdenticalTreesShortCircuitToZero) {
  TedEngine engine;
  const auto t = randomTree(1, 60);
  auto copy = t; // distinct object, same structure
  EXPECT_EQ(engine.ted(t, copy), 0u);
  const auto s = engine.stats();
  EXPECT_GE(s.wholeTreeShortcuts, 1u);
  // The equal-fingerprint pair never reaches a DP, so no memo entry either.
  EXPECT_EQ(s.memoMisses, 0u);
}

TEST(TedEngine, StructurallyIdenticalTreesShareOneView) {
  TedEngine engine;
  const auto t = randomTree(2, 40);
  const auto copy = t;
  const auto v1 = engine.views(t);
  const auto v2 = engine.views(copy); // different Tree object, same structure
  EXPECT_EQ(v1.get(), v2.get());
  const auto s = engine.stats();
  EXPECT_EQ(s.viewMisses, 1u);
  EXPECT_EQ(s.viewHits, 1u);
  EXPECT_EQ(v1->n, t.size());
  EXPECT_EQ(v1->fp[v1->n], t.fingerprint());
}

TEST(TedEngine, CachedEqualsUncachedOnRandomTrees) {
  // Under both kernel ISA variants, each with its own engine so no memo
  // entry of the other variant answers.
  for (const auto isa : {apted::seam::Isa::Native, apted::seam::Isa::Baseline}) {
    const apted::seam::ScopedIsa scoped(isa);
    TedEngine engine;
    for (u32 seed = 0; seed < 20; ++seed) {
      std::mt19937 rng(seed);
      const auto a = randomTree(seed * 2 + 1, 10 + rng() % 60);
      const auto b = randomTree(seed * 2 + 2, 10 + rng() % 60);
      const u64 cached = engine.ted(a, b);
      EXPECT_EQ(cached, ted(a, b)) << "seed=" << seed;
      EXPECT_EQ(cached, ted(a, b, TedOptions{TedAlgo::ZhangShasha, {}})) << "seed=" << seed;
    }
  }
}

TEST(TedEngine, CachedEqualsUncachedWithDuplicatedSubtrees) {
  TedEngine engine;
  for (u32 seed = 0; seed < 8; ++seed) {
    const auto a = treeWithDuplicates(seed, 10, 3);
    const auto b = treeWithDuplicates(seed + 50, 10, 3);
    EXPECT_EQ(engine.ted(a, b), ted(a, b)) << "seed=" << seed;
    // Trees sharing a repeated subtree against themselves (shifted) must
    // also agree — the densest block-reuse case.
    const auto c = treeWithDuplicates(seed, 10, 5);
    EXPECT_EQ(engine.ted(a, c), ted(a, c)) << "seed=" << seed;
  }
}

TEST(TedEngine, ZhangShashaRequestBypassesTheEngine) {
  // The oracle must never be answered from the engine's caches: a
  // ZhangShasha request runs the uncached reference and leaves every
  // counter untouched.
  TedEngine engine;
  const auto a = randomTree(14, 40);
  const auto b = randomTree(15, 30);
  const TedOptions zs{TedAlgo::ZhangShasha, {}};
  EXPECT_EQ(engine.ted(a, b, zs), ted(a, b, zs));
  EXPECT_EQ(engine.ted(a, a, zs), 0u);
  const auto s = engine.stats();
  u64 kernels = 0, cells = 0;
  for (usize k = 0; k < 4; ++k) {
    kernels += s.spfKernels[k];
    cells += s.spfSubproblems[k];
  }
  EXPECT_EQ(s.viewHits + s.viewMisses + s.memoHits + s.memoMisses + s.wholeTreeShortcuts +
                s.strategyMisses + s.subtreeBlockHits + s.prunedByBound +
                s.prunedByCutoff + s.cutoffExact + kernels + cells,
            0u);
}

TEST(TedEngine, EachCostConfigurationRunsOneDp) {
  // Costs are part of the memo key, so a second TedCosts runs its own DP,
  // strategy included; repeating either configuration runs none.
  TedEngine engine;
  const auto a = randomTree(21, 45);
  const auto b = randomTree(22, 55);
  TedOptions unit;
  TedOptions heavy;
  heavy.costs.del = 2;
  heavy.costs.ins = 5;
  EXPECT_EQ(engine.ted(a, b, unit), ted(a, b, unit));
  EXPECT_EQ(engine.stats().strategyMisses, 1u);
  EXPECT_EQ(engine.ted(a, b, heavy), ted(a, b, heavy));
  EXPECT_EQ(engine.ted(a, b, unit), ted(a, b, unit));
  EXPECT_EQ(engine.ted(a, b, heavy), ted(a, b, heavy));
  const auto s2 = engine.stats();
  EXPECT_EQ(s2.strategyMisses, 2u);
  EXPECT_EQ(s2.memoHits, 2u);
  // The kernel histogram is populated: every executed single-path kernel is
  // attributed to exactly one PathKind.
  u64 kernels = 0, cells = 0;
  for (usize k = 0; k < 4; ++k) {
    kernels += s2.spfKernels[k];
    cells += s2.spfSubproblems[k];
  }
  EXPECT_GT(kernels, 0u);
  EXPECT_GT(cells, 0u);
}

TEST(TedEngine, RepeatedSubtreePairsReplayTheirTdRectangle) {
  // Both roots carry repeated copies of a stamp: whichever path the
  // strategy picks at the root pair, at least two identical subtree pairs
  // hang off it, so the second one replays the solved TD rectangle instead
  // of recomputing (subtreeBlockHits > 0 under Apted).
  const auto stampA = build("For", {build("Decl"), build("BinOp", {build("Ref"), build("Lit")})});
  const auto stampB = build("If", {build("Call", {build("Ref")}), build("Ret")});
  const auto a = toTree(build("Fn", {stampA, stampA, stampA, build("Ret")}));
  const auto b = toTree(build("Kernel", {stampB, stampB, build("Decl")}));
  TedEngine engine;
  EXPECT_EQ(engine.ted(a, b), ted(a, b));
  EXPECT_GT(engine.stats().subtreeBlockHits, 0u);

  // Random duplicated-subtree pairs stay byte-identical to the reference.
  for (u32 seed = 0; seed < 6; ++seed) {
    const auto x = treeWithDuplicates(seed + 31, 14, 4);
    const auto y = treeWithDuplicates(seed + 77, 14, 4);
    EXPECT_EQ(engine.ted(x, y), ted(x, y)) << "seed=" << seed;
  }
}

TEST(TedEngine, SymmetricCostsReuseThePairMemo) {
  TedEngine engine;
  const auto a = randomTree(5, 40);
  const auto b = randomTree(6, 25);
  const u64 ab = engine.ted(a, b);
  const auto before = engine.stats();
  const u64 ba = engine.ted(b, a);
  const auto after = engine.stats();
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, ted(a, b));
  EXPECT_EQ(after.memoHits, before.memoHits + 1);
  EXPECT_EQ(after.memoMisses, before.memoMisses); // reverse direction ran no DP
}

TEST(TedEngine, AsymmetricCostsMatchUncachedInBothDirections) {
  TedEngine engine;
  TedOptions opts;
  opts.costs.del = 2;
  opts.costs.ins = 5;
  opts.costs.rename = 3;
  const auto a = randomTree(7, 35);
  const auto b = randomTree(8, 50);
  EXPECT_EQ(engine.ted(a, b, opts), ted(a, b, opts));
  EXPECT_EQ(engine.ted(b, a, opts), ted(b, a, opts));
  // ted(a,b,{del,ins}) == ted(b,a,{ins,del}): the memo canonicalisation
  // identity, checked against the reference.
  TedOptions swapped = opts;
  std::swap(swapped.costs.del, swapped.costs.ins);
  EXPECT_EQ(engine.ted(a, b, opts), engine.ted(b, a, swapped));
}

TEST(TedEngine, DistinctCostsGetDistinctMemoEntries) {
  TedEngine engine;
  const auto a = toTree(build("A", {build("x")}));
  const auto b = toTree(build("A", {build("x"), build("y"), build("z")}));
  TedOptions unit;
  TedOptions heavy;
  heavy.costs.ins = 3;
  EXPECT_EQ(engine.ted(a, b, unit), 2u);
  EXPECT_EQ(engine.ted(a, b, heavy), 6u); // must not hit the unit-cost entry
}

TEST(TedEngine, EmptyTreesMatchReference) {
  TedEngine engine;
  const Tree empty;
  const auto t = randomTree(9, 20);
  EXPECT_EQ(engine.ted(empty, t), t.size());
  EXPECT_EQ(engine.ted(t, empty), t.size());
  EXPECT_EQ(engine.ted(empty, empty), 0u);
}

TEST(TedEngine, ClearDropsCachesButKeepsAnswersCorrect) {
  TedEngine engine;
  const auto a = randomTree(10, 30);
  const auto b = randomTree(11, 30);
  const u64 before = engine.ted(a, b);
  engine.clear();
  const auto s = engine.stats();
  EXPECT_EQ(s.viewMisses + s.viewHits + s.memoHits + s.memoMisses, 0u);
  EXPECT_EQ(engine.ted(a, b), before);
}

TEST(TedEngine, DispatchRespectsUseCacheFlag) {
  const auto a = randomTree(12, 25);
  const auto b = randomTree(13, 25);
  TedOptions cached;
  TedOptions uncached;
  uncached.useCache = false;
  EXPECT_EQ(tedDispatch(a, b, cached), tedDispatch(a, b, uncached));
  EXPECT_EQ(tedDispatch(a, b, uncached), ted(a, b));
}

TEST(TedEngine, ConcurrentHammeringStaysConsistent) {
  // Hammer one shared engine from many threads over a pool of trees
  // (including duplicates, so the interner, view cache and pair memo all
  // see concurrent hits and misses), then check every answer against the
  // serial reference.
  TedEngine engine;
  std::vector<Tree> pool;
  for (u32 s = 0; s < 8; ++s) pool.push_back(randomTree(s, 20 + s * 5));
  pool.push_back(pool[0]); // identical-tree pairs exercise the fp shortcut
  pool.push_back(pool[3]);

  const usize n = pool.size();
  std::vector<std::pair<usize, usize>> tasks;
  for (usize i = 0; i < n; ++i)
    for (usize j = 0; j < n; ++j) tasks.emplace_back(i, j);

  std::vector<u64> got(tasks.size());
  parallelFor(
      tasks.size(),
      [&](usize k) { got[k] = engine.ted(pool[tasks[k].first], pool[tasks[k].second]); },
      /*threads=*/8);

  for (usize k = 0; k < tasks.size(); ++k)
    EXPECT_EQ(got[k], ted(pool[tasks[k].first], pool[tasks[k].second]))
        << tasks[k].first << " vs " << tasks[k].second;
}
