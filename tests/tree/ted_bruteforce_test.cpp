// Ground-truth cross-check: an exponential brute-force TED (direct
// implementation of the forest-distance recurrence, no keyroot sharing)
// validated against Zhang–Shasha and Apted on every small random tree
// pair. This is the strongest correctness evidence for
// the distance at the heart of TBMD.
#include <gtest/gtest.h>

#include <random>

#include "bruteforce.hpp"
#include "tree/ted.hpp"

using namespace sv;
using namespace sv::tree;
using sv::tree::oracle::bruteTed;

namespace {

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
