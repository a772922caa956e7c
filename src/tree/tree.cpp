#include "tree/tree.hpp"

#include <algorithm>

#include "support/hash.hpp"

namespace sv::tree {

Tree Tree::leaf(std::string label, i32 file, i32 line) {
  Tree t;
  t.nodes_.push_back(Node{std::move(label), kNoParent, {}, file, line});
  return t;
}

NodeId Tree::addChild(NodeId parent, std::string label, i32 file, i32 line) {
  SV_CHECK(parent < nodes_.size(), "addChild: bad parent id");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(label), parent, {}, file, line});
  nodes_[parent].children.push_back(id);
  return id;
}

usize Tree::depth() const {
  if (nodes_.empty()) return 0;
  usize best = 0;
  visitPreorder([&](NodeId, usize d) { best = std::max(best, d + 1); });
  return best;
}

usize Tree::leafCount() const {
  usize n = 0;
  for (const auto &node : nodes_)
    if (node.children.empty()) ++n;
  return n;
}

void Tree::visitPreorder(const std::function<void(NodeId, usize)> &f) const {
  if (nodes_.empty()) return;
  // Explicit stack to keep deep trees (long statement chains) safe.
  std::vector<std::pair<NodeId, usize>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    f(id, d);
    const auto &ch = nodes_[id].children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.emplace_back(*it, d + 1);
  }
}

std::vector<NodeId> Tree::postorder() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  if (nodes_.empty()) return out;
  // Iterative post-order: (node, childCursor).
  std::vector<std::pair<NodeId, usize>> stack{{0, 0}};
  while (!stack.empty()) {
    auto &[id, cursor] = stack.back();
    const auto &ch = nodes_[id].children;
    if (cursor < ch.size()) {
      const NodeId next = ch[cursor++];
      stack.emplace_back(next, 0);
    } else {
      out.push_back(id);
      stack.pop_back();
    }
  }
  return out;
}

NodeId Tree::graft(NodeId parent, const Tree &other, NodeId otherRoot) {
  SV_CHECK(parent < nodes_.size(), "graft: bad parent id");
  SV_CHECK(otherRoot < other.nodes_.size(), "graft: bad source root");
  // BFS copy preserving child order.
  const auto &src = other.nodes_[otherRoot];
  const NodeId newRoot = addChild(parent, src.label, src.file, src.line);
  std::vector<std::pair<NodeId, NodeId>> queue{{otherRoot, newRoot}}; // (src, dst)
  for (usize qi = 0; qi < queue.size(); ++qi) {
    const auto [srcId, dstId] = queue[qi];
    for (const NodeId c : other.nodes_[srcId].children) {
      const auto &cn = other.nodes_[c];
      const NodeId nc = addChild(dstId, cn.label, cn.file, cn.line);
      queue.emplace_back(c, nc);
    }
  }
  return newRoot;
}

Tree Tree::pruneWhere(const std::function<bool(const Node &)> &keep) const {
  Tree out;
  if (nodes_.empty()) return out;
  if (!keep(nodes_[0])) {
    // Whole tree masked out; keep a stub root so downstream code still has a tree.
    return Tree::leaf("<masked>");
  }
  out.nodes_.push_back(Node{nodes_[0].label, kNoParent, {}, nodes_[0].file, nodes_[0].line});
  std::vector<std::pair<NodeId, NodeId>> stack;
  const auto pushChildren = [&](NodeId origId, NodeId destParent) {
    const auto &ch = nodes_[origId].children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it) stack.emplace_back(*it, destParent);
  };
  pushChildren(0, 0);
  while (!stack.empty()) {
    const auto [origId, destParent] = stack.back();
    stack.pop_back();
    const auto &n = nodes_[origId];
    if (!keep(n)) continue; // drop whole subtree
    const NodeId id = out.addChild(destParent, n.label, n.file, n.line);
    pushChildren(origId, id);
  }
  return out;
}

Tree Tree::relabel(const std::function<std::string(const std::string &)> &f) const {
  Tree out = *this;
  for (auto &n : out.nodes_) n.label = f(n.label);
  return out;
}

u64 Tree::fingerprint() const {
  // Bottom-up Merkle-style hash: a node's hash mixes its label hash with the
  // ordered hashes of its children.
  std::vector<u64> h(nodes_.size(), 0);
  for (const NodeId id : postorder()) {
    u64 acc = fnv1a(nodes_[id].label);
    for (const NodeId c : nodes_[id].children) acc = hashCombine(acc, h[c]);
    h[id] = acc;
  }
  return nodes_.empty() ? 0 : h[0];
}

std::string Tree::pretty(usize maxDepth) const {
  std::string out;
  visitPreorder([&](NodeId id, usize d) {
    if (d > maxDepth) return;
    out.append(d * 2, ' ');
    out += nodes_[id].label;
    if (nodes_[id].line >= 0) {
      out += "  @";
      out += std::to_string(nodes_[id].line);
    }
    out.push_back('\n');
  });
  return out;
}

void Tree::validate() const {
  if (nodes_.empty()) return;
  SV_CHECK(nodes_[0].parent == kNoParent, "root must have no parent");
  usize reachable = 0;
  visitPreorder([&](NodeId id, usize) {
    ++reachable;
    for (const NodeId c : nodes_[id].children) {
      SV_CHECK(c < nodes_.size(), "child id out of range");
      SV_CHECK(nodes_[c].parent == id, "parent/child mismatch");
    }
  });
  SV_CHECK(reachable == nodes_.size(), "unreachable nodes present");
}

msgpack::Value Tree::toMsgpack() const {
  msgpack::Array labels, parents, files, lines;
  labels.reserve(nodes_.size());
  for (const auto &n : nodes_) {
    labels.emplace_back(n.label);
    parents.emplace_back(n.parent == kNoParent ? i64{-1} : static_cast<i64>(n.parent));
    files.emplace_back(static_cast<i64>(n.file));
    lines.emplace_back(static_cast<i64>(n.line));
  }
  msgpack::Map m;
  m.emplace("labels", std::move(labels));
  m.emplace("parents", std::move(parents));
  m.emplace("files", std::move(files));
  m.emplace("lines", std::move(lines));
  return msgpack::Value(std::move(m));
}

Tree Tree::fromMsgpack(const msgpack::Value &v) {
  const auto &labels = v.at("labels").asArray();
  const auto &parents = v.at("parents").asArray();
  const auto &files = v.at("files").asArray();
  const auto &lines = v.at("lines").asArray();
  if (labels.size() != parents.size() || labels.size() != files.size() ||
      labels.size() != lines.size())
    throw ParseError("tree: inconsistent column lengths");
  Tree t;
  t.nodes_.resize(labels.size());
  for (usize i = 0; i < labels.size(); ++i) {
    auto &n = t.nodes_[i];
    n.label = labels[i].asString();
    const i64 p = parents[i].asInt();
    n.parent = p < 0 ? kNoParent : static_cast<u32>(p);
    n.file = static_cast<i32>(files[i].asInt());
    n.line = static_cast<i32>(lines[i].asInt());
    if ((p < 0) != (i == 0)) throw ParseError("tree: node 0 must be the one root");
    if (p >= 0) {
      if (static_cast<usize>(p) >= labels.size()) throw ParseError("tree: bad parent index");
      t.nodes_[static_cast<usize>(p)].children.push_back(static_cast<NodeId>(i));
    }
  }
  // A file is outside input, so its faults are ParseErrors, not the
  // InternalErrors validate() raises for trees the program builds: with one
  // root, a node the root cannot reach sits on a parent cycle.
  usize reachable = 0;
  t.visitPreorder([&](NodeId, usize) { ++reachable; });
  if (reachable != t.nodes_.size()) throw ParseError("tree: parent cycle");
  return t;
}

Builder build(std::string label, std::vector<Builder> children) {
  return Builder{std::move(label), std::move(children)};
}

namespace {
void addBuilt(Tree &t, NodeId parent, const Builder &b) {
  const NodeId id = t.addChild(parent, b.label);
  for (const auto &c : b.children) addBuilt(t, id, c);
}
} // namespace

Tree toTree(const Builder &b) {
  Tree t = Tree::leaf(b.label);
  for (const auto &c : b.children) addBuilt(t, 0, c);
  return t;
}

} // namespace sv::tree
