#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/hash.hpp"
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
  EXPECT_EQ(t.node(0).firstChild, c);
  EXPECT_EQ(t.node(0).lastChild, c);
  const auto d = t.addChild(0, "second");
  EXPECT_EQ(t.node(c).nextSibling, d);
  EXPECT_EQ(t.node(d).prevSibling, c);
  EXPECT_EQ(t.node(0).lastChild, d);
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
  for (NodeId id = 1; id < t.size(); ++id) EXPECT_LT(position[id], position[t.node(id).parent]);
  EXPECT_EQ(order.back(), 0u); // root last
  // Left to right: Param, Params, Decl, Ret, Body, Fn; mirrored: right to left.
  EXPECT_EQ(order, (std::vector<NodeId>{2, 1, 4, 5, 3, 0}));
  EXPECT_EQ(t.postorder(/*mirrored=*/true), (std::vector<NodeId>{5, 4, 3, 2, 1, 0}));
}

TEST(Tree, GraftCopiesSubtree) {
  auto dst = Tree::leaf("root");
  const auto src = fixture();
  const auto grafted = dst.graft(0, src);
  EXPECT_EQ(dst.size(), 7u);
  EXPECT_EQ(dst.node(grafted).label, "Fn");
  dst.validate();
  // Graft is a deep copy; growing dst leaves src untouched.
  dst.addChild(grafted, "Extra");
  EXPECT_EQ(src.size(), 6u);
  EXPECT_EQ(src.fingerprint(), fixture().fingerprint());
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
  const auto r = fixture().relabel([](std::string_view l) { return std::string(l) + "!"; });
  EXPECT_EQ(r.node(0).label, "Fn!");
  EXPECT_EQ(r.size(), fixture().size());
}

TEST(Tree, FingerprintStableAndShapeSensitive) {
  EXPECT_EQ(fixture().fingerprint(), fixture().fingerprint());
  // The fixture with its last leaf (Ret) labelled Throw instead.
  const auto other = toTree(build("Fn", {build("Params", {build("Param")}),
                                         build("Body", {build("Decl"), build("Throw")})}));
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
  auto t = Tree::leaf("Fn");
  t.addChild(0, "Params");
  t.addChild(1, "Param", 3, 42);
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

TEST(Tree, FingerprintFollowsEveryMutator) {
  // Each tree reads its fingerprint first, so a stale cached value would
  // survive the change below it; each must match the same tree built fresh.
  auto grown = fixture();
  (void)grown.fingerprint();
  grown.addChild(3, "Throw");
  const auto grownFresh = toTree(build(
      "Fn", {build("Params", {build("Param")}),
             build("Body", {build("Decl"), build("Ret"), build("Throw")})}));
  EXPECT_EQ(grown.fingerprint(), grownFresh.fingerprint());

  auto grafted = Tree::leaf("root");
  (void)grafted.fingerprint();
  grafted.graft(0, fixture());
  auto graftedFresh = Tree::leaf("root");
  graftedFresh.addChild(0, "Fn");
  graftedFresh.addChild(1, "Params");
  graftedFresh.addChild(2, "Param");
  graftedFresh.addChild(1, "Body");
  graftedFresh.addChild(4, "Decl");
  graftedFresh.addChild(4, "Ret");
  EXPECT_EQ(grafted.fingerprint(), graftedFresh.fingerprint());

  // A copy keeps the value, then diverges from its source on its own.
  const auto source = fixture();
  (void)source.fingerprint();
  auto copy = source;
  EXPECT_EQ(copy.fingerprint(), fixture().fingerprint());
  copy.addChild(3, "Throw");
  EXPECT_EQ(copy.fingerprint(), grownFresh.fingerprint());
  EXPECT_EQ(source.fingerprint(), fixture().fingerprint());

  const auto pruned = source.pruneWhere([](const Node &n) { return n.label != "Params"; });
  EXPECT_EQ(pruned.fingerprint(),
            toTree(build("Fn", {build("Body", {build("Decl"), build("Ret")})})).fingerprint());
  const auto relabelled =
      source.relabel([](std::string_view l) { return l == "Ret" ? "Throw" : std::string(l); });
  EXPECT_EQ(relabelled.fingerprint(),
            toTree(build("Fn", {build("Params", {build("Param")}),
                                build("Body", {build("Decl"), build("Throw")})}))
                .fingerprint());
  EXPECT_EQ(Tree::fromMsgpack(grown.toMsgpack()).fingerprint(), grownFresh.fingerprint());
}

TEST(Tree, ConcurrentFirstFingerprint) {
  // Eight threads make the first fingerprint() call on one shared tree.
  auto t = Tree::leaf("root");
  for (NodeId i = 0; i < 2000; ++i) t.addChild(i / 3, "n" + std::to_string(i % 17));
  const u64 expected = t.subtreeHashes()[0];
  for (int round = 0; round < 20; ++round) {
    const Tree shared = t;
    std::vector<u64> seen(8, 0);
    std::vector<std::thread> threads;
    for (usize k = 0; k < seen.size(); ++k)
      threads.emplace_back([&, k] { seen[k] = shared.fingerprint(); });
    for (auto &th : threads) th.join();
    for (const u64 fp : seen) EXPECT_EQ(fp, expected);
  }
}

TEST(LabelTable, ConcurrentInternAgrees) {
  // Eight threads intern overlapping label sets in different orders: each
  // text gets exactly one id, and every id reads back its text and hash.
  LabelTable table;
  constexpr usize kThreads = 8, kTexts = 3000;
  std::vector<std::vector<LabelId>> ids(kThreads, std::vector<LabelId>(kTexts));
  std::vector<std::thread> threads;
  for (usize k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      for (usize i = 0; i < kTexts; ++i) {
        const usize text = (k % 2 == 0 ? i : kTexts - 1 - i);
        ids[k][text] = table.intern("label:" + std::to_string(text));
      }
    });
  for (auto &th : threads) th.join();
  EXPECT_EQ(table.intern("fresh"), kTexts); // ids 0..kTexts-1 are all taken
  std::vector<bool> used(kTexts, false);
  for (usize i = 0; i < kTexts; ++i) {
    const LabelId id = ids[0][i];
    for (usize k = 1; k < kThreads; ++k) EXPECT_EQ(ids[k][i], id);
    ASSERT_LT(id, kTexts);
    EXPECT_FALSE(used[id]);
    used[id] = true;
    const std::string text = "label:" + std::to_string(i);
    EXPECT_EQ(table.text(id), text);
    EXPECT_EQ(table.hash(id), fnv1a(text));
    EXPECT_EQ(table.intern(text), id);
  }
}

TEST(LabelTable, CeilingThrowsADiagnostic) {
  LabelTable table(3);
  for (const char *text : {"a", "b", "c"}) (void)table.intern(text);
  EXPECT_EQ(table.intern("b"), table.intern("b")); // known labels still resolve
  try {
    (void)table.intern("d");
    ADD_FAILURE() << "a fourth label was accepted";
  } catch (const std::runtime_error &e) {
    EXPECT_NE(std::string(e.what()).find("more than 3 distinct labels"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(table.text(table.intern("c")), "c");
}
