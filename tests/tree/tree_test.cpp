#include <gtest/gtest.h>

#include "tree/tree.hpp"

using namespace sv;
using namespace sv::tree;

namespace {
// A small AST-shaped fixture:
//   Fn
//   ├── Params
//   │   └── Param
//   └── Body
//       ├── Decl
//       └── Ret
Tree fixture() {
  return toTree(build("Fn", {build("Params", {build("Param")}),
                             build("Body", {build("Decl"), build("Ret")})}));
}
} // namespace

TEST(Tree, LeafConstruction) {
  const auto t = Tree::leaf("X", 2, 14);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.node(0).label, "X");
  EXPECT_EQ(t.node(0).file, 2);
  EXPECT_EQ(t.node(0).line, 14);
  EXPECT_EQ(t.node(0).parent, kNoParent);
}

TEST(Tree, AddChildLinksBothWays) {
  auto t = Tree::leaf("root");
  const auto c = t.addChild(0, "child");
  EXPECT_EQ(t.node(c).parent, 0u);
  ASSERT_EQ(t.node(0).children.size(), 1u);
  EXPECT_EQ(t.node(0).children[0], c);
  t.validate();
}

TEST(Tree, SizeDepthLeaves) {
  const auto t = fixture();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.leafCount(), 3u);
}

TEST(Tree, EmptyTreeProperties) {
  const Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.depth(), 0u);
  EXPECT_EQ(t.leafCount(), 0u);
  EXPECT_TRUE(t.postorder().empty());
  t.validate();
}

TEST(Tree, PreorderVisitsInSourceOrder) {
  // pretty() renders one node per line in pre-order.
  EXPECT_EQ(fixture().pretty(), "Fn\n  Params\n    Param\n  Body\n    Decl\n    Ret\n");
}

TEST(Tree, PostorderChildrenBeforeParents) {
  const auto t = fixture();
  const auto order = t.postorder();
  ASSERT_EQ(order.size(), t.size());
  std::vector<usize> position(t.size());
  for (usize i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId id = 0; id < t.size(); ++id)
    for (const NodeId c : t.node(id).children) EXPECT_LT(position[c], position[id]);
  EXPECT_EQ(order.back(), 0u); // root last
}

TEST(Tree, GraftCopiesSubtree) {
  auto dst = Tree::leaf("root");
  const auto src = fixture();
  const auto grafted = dst.graft(0, src);
  EXPECT_EQ(dst.size(), 7u);
  EXPECT_EQ(dst.node(grafted).label, "Fn");
  dst.validate();
  // Graft is a deep copy; mutating dst leaves src untouched.
  dst.node(grafted).label = "Changed";
  EXPECT_EQ(src.node(0).label, "Fn");
}

TEST(Tree, GraftPreservesChildOrder) {
  auto dst = Tree::leaf("root");
  dst.graft(0, fixture());
  EXPECT_EQ(dst.pretty(), "root\n  Fn\n    Params\n      Param\n    Body\n      Decl\n      Ret\n");
}

TEST(Tree, PruneRemovesWholeSubtree) {
  const auto t = fixture();
  const auto p = t.pruneWhere([](const Node &n) { return n.label != "Body"; });
  // Body, Decl and Ret all disappear.
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.pretty(), "Fn\n  Params\n    Param\n");
  p.validate();
}

TEST(Tree, PruneRootYieldsMaskedStub) {
  const auto p = fixture().pruneWhere([](const Node &) { return false; });
  EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(p.node(0).label, "<masked>");
}

TEST(Tree, RelabelAppliesEverywhere) {
  const auto r = fixture().relabel([](const std::string &l) { return l + "!"; });
  EXPECT_EQ(r.node(0).label, "Fn!");
  EXPECT_EQ(r.size(), fixture().size());
}

TEST(Tree, FingerprintStableAndShapeSensitive) {
  EXPECT_EQ(fixture().fingerprint(), fixture().fingerprint());
  auto other = fixture();
  other.node(5).label = "Throw";
  EXPECT_NE(other.fingerprint(), fixture().fingerprint());
}

TEST(Tree, FingerprintSensitiveToChildOrder) {
  const auto a = toTree(build("R", {build("A"), build("B")}));
  const auto b = toTree(build("R", {build("B"), build("A")}));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Tree, SameShapeIgnoresLocations) {
  const auto a = Tree::leaf("X", 0, 1);
  const auto b = Tree::leaf("X", 5, 99);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(Tree, MsgpackRoundTrip) {
  auto t = fixture();
  t.node(2).file = 3;
  t.node(2).line = 42;
  const auto back = Tree::fromMsgpack(t.toMsgpack());
  EXPECT_EQ(back.size(), t.size());
  EXPECT_EQ(back.fingerprint(), t.fingerprint());
  EXPECT_EQ(back.node(2).file, 3);
  EXPECT_EQ(back.node(2).line, 42);
}

TEST(Tree, PrettyShowsStructure) {
  const auto s = fixture().pretty();
  EXPECT_NE(s.find("Fn"), std::string::npos);
  EXPECT_NE(s.find("  Params"), std::string::npos);
  EXPECT_NE(s.find("    Param"), std::string::npos);
}

TEST(Tree, DeepTreeNoStackOverflow) {
  auto t = Tree::leaf("n0");
  NodeId cur = 0;
  for (int i = 1; i <= 200000; ++i) cur = t.addChild(cur, "n");
  EXPECT_EQ(t.depth(), 200001u);
  EXPECT_EQ(t.postorder().size(), 200001u);
  t.validate();
}
