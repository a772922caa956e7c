// Ground-truth cross-check: an exponential brute-force TED (direct
// implementation of the forest-distance recurrence, no keyroot sharing)
// validated against Zhang–Shasha and Apted on every small random tree
// pair. This is the strongest correctness evidence for
// the distance at the heart of TBMD.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "tree/ted.hpp"

using namespace sv;
using namespace sv::tree;

namespace {

/// A forest is an ordered list of subtree roots of one tree.
using Forest = std::vector<NodeId>;

struct BruteForce {
  const Tree &a;
  const Tree &b;
  std::map<std::pair<Forest, Forest>, u64> memo;

  u64 forestSize(const Tree &t, const Forest &f) {
    u64 n = 0;
    for (const NodeId r : f) {
      n += 1;
      n += forestSize(t, t.node(r).children);
    }
    return n;
  }

  /// Classic recurrence on (forest, forest): operate on the *rightmost*
  /// root of either forest.
  u64 dist(const Forest &fa, const Forest &fb) {
    if (fa.empty() && fb.empty()) return 0;
    const auto key = std::make_pair(fa, fb);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    u64 best;
    if (fa.empty()) {
      // insert everything remaining in fb
      best = forestSize(b, fb);
    } else if (fb.empty()) {
      best = forestSize(a, fa);
    } else {
      const NodeId ra = fa.back();
      const NodeId rb = fb.back();
      // delete ra: its children join the forest.
      Forest faDel(fa.begin(), fa.end() - 1);
      faDel.insert(faDel.end(), a.node(ra).children.begin(), a.node(ra).children.end());
      best = dist(faDel, fb) + 1;
      // insert rb
      Forest fbIns(fb.begin(), fb.end() - 1);
      fbIns.insert(fbIns.end(), b.node(rb).children.begin(), b.node(rb).children.end());
      best = std::min(best, dist(fa, fbIns) + 1);
      // match ra with rb: subtree-vs-subtree plus remainder-vs-remainder.
      Forest faRest(fa.begin(), fa.end() - 1);
      Forest fbRest(fb.begin(), fb.end() - 1);
      const u64 rename = a.node(ra).label == b.node(rb).label ? 0 : 1;
      best = std::min(best, dist(faRest, fbRest) +
                                dist(a.node(ra).children, b.node(rb).children) + rename);
    }
    memo.emplace(key, best);
    return best;
  }
};

u64 bruteTed(const Tree &a, const Tree &b) {
  BruteForce bf{a, b, {}};
  return bf.dist({0}, {0});
}

Tree randomSmallTree(std::mt19937 &rng, usize maxNodes) {
  static const char *labels[] = {"a", "b", "c"};
  auto t = Tree::leaf(labels[rng() % 3]);
  const usize n = 1 + rng() % maxNodes;
  for (usize i = 1; i < n; ++i)
    t.addChild(static_cast<NodeId>(rng() % t.size()), labels[rng() % 3]);
  return t;
}

} // namespace

TEST(TedBruteForce, HandCheckedCases) {
  const auto a = toTree(build("a", {build("b", {build("c")})}));
  const auto star = toTree(build("a", {build("b"), build("c")}));
  EXPECT_EQ(bruteTed(a, star), 2u);
  EXPECT_EQ(bruteTed(a, a), 0u);
  EXPECT_EQ(bruteTed(Tree::leaf("x"), Tree::leaf("y")), 1u);
}

class TedGroundTruth : public ::testing::TestWithParam<u32> {};

TEST_P(TedGroundTruth, AllAlgorithmsMatchBruteForce) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    const auto a = randomSmallTree(rng, 8);
    const auto b = randomSmallTree(rng, 8);
    const u64 truth = bruteTed(a, b);
    EXPECT_EQ(ted(a, b, {TedAlgo::ZhangShasha, {}}), truth)
        << "seed=" << GetParam() << " trial=" << trial << "\nA:\n"
        << a.pretty() << "B:\n" << b.pretty();
    EXPECT_EQ(ted(a, b, {TedAlgo::Apted, {}}), truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TedGroundTruth, ::testing::Range(0u, 10u));
