#include "tree/tree.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <type_traits>

#include "support/hash.hpp"

namespace sv::tree {

// Containers of trees (a DB's units) move them when they grow, never copy.
static_assert(std::is_nothrow_move_constructible_v<Tree>);

LabelTable::LabelTable(usize maxLabels)
    : maxLabels_(maxLabels), chunks_((maxLabels + kChunk - 1) / kChunk) {}

LabelTable &LabelTable::global() {
  static LabelTable table;
  return table;
}

LabelId LabelTable::intern(std::string_view text) {
  {
    std::shared_lock lock(mutex_);
    if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  if (const auto it = ids_.find(text); it != ids_.end()) return it->second;
  const usize id = ids_.size();
  if (id == maxLabels_)
    throw std::runtime_error("label table: more than " + std::to_string(maxLabels_) +
                             " distinct labels");
  auto &chunk = chunks_[id / kChunk];
  if (!chunk) chunk = std::make_unique<Entry[]>(kChunk);
  Entry &e = chunk[id % kChunk];
  e.text.assign(text);
  e.hash = fnv1a(text);
  ids_.emplace(e.text, static_cast<LabelId>(id));
  return static_cast<LabelId>(id);
}

NodeId Tree::append(NodeId parent, LabelId label, i32 file, i32 line) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n{.label = LabelTable::global().text(label), .labelId = label, .parent = parent,
         .file = file, .line = line};
  if (parent != kNoParent) {
    Node &p = nodes_[parent];
    n.prevSibling = p.lastChild;
    (p.lastChild == kNoNode ? p.firstChild : nodes_[p.lastChild].nextSibling) = id;
    p.lastChild = id;
  }
  nodes_.push_back(n);
  fingerprint_.value.store(0, std::memory_order_relaxed);
  return id;
}

Tree Tree::leaf(std::string_view label, i32 file, i32 line) {
  Tree t;
  t.append(kNoParent, LabelTable::global().intern(label), file, line);
  return t;
}

NodeId Tree::addChild(NodeId parent, std::string_view label, i32 file, i32 line) {
  SV_CHECK(parent < nodes_.size(), "addChild: bad parent id");
  return append(parent, LabelTable::global().intern(label), file, line);
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
    if (node.firstChild == kNoNode) ++n;
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
    for (NodeId c = nodes_[id].lastChild; c != kNoNode; c = nodes_[c].prevSibling)
      stack.emplace_back(c, d + 1);
  }
}

std::vector<NodeId> Tree::postorder(bool mirrored) const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  if (nodes_.empty()) return out;
  const auto first = [&](NodeId v) {
    return mirrored ? nodes_[v].lastChild : nodes_[v].firstChild;
  };
  const auto next = [&](NodeId v) {
    return mirrored ? nodes_[v].prevSibling : nodes_[v].nextSibling;
  };
  // Stackless: descend to the first leaf, emit, then move to the next
  // sibling's first leaf or up to the parent.
  NodeId v = 0;
  for (;;) {
    while (first(v) != kNoNode) v = first(v);
    for (;;) {
      out.push_back(v);
      if (v == 0) return out;
      if (next(v) != kNoNode) break;
      v = nodes_[v].parent;
    }
    v = next(v);
  }
}

NodeId Tree::graft(NodeId parent, const Tree &other, NodeId otherRoot) {
  SV_CHECK(parent < nodes_.size(), "graft: bad parent id");
  SV_CHECK(otherRoot < other.nodes_.size(), "graft: bad source root");
  // BFS copy preserving child order.
  const auto &src = other.nodes_[otherRoot];
  const NodeId newRoot = append(parent, src.labelId, src.file, src.line);
  std::vector<std::pair<NodeId, NodeId>> queue{{otherRoot, newRoot}}; // (src, dst)
  for (usize qi = 0; qi < queue.size(); ++qi) {
    const auto [srcId, dstId] = queue[qi];
    for (NodeId c = other.nodes_[srcId].firstChild; c != kNoNode;
         c = other.nodes_[c].nextSibling) {
      const auto &cn = other.nodes_[c];
      queue.emplace_back(c, append(dstId, cn.labelId, cn.file, cn.line));
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
  out.append(kNoParent, nodes_[0].labelId, nodes_[0].file, nodes_[0].line);
  std::vector<std::pair<NodeId, NodeId>> stack; // (original, kept parent)
  const auto pushChildren = [&](NodeId origId, NodeId destParent) {
    for (NodeId c = nodes_[origId].lastChild; c != kNoNode; c = nodes_[c].prevSibling)
      stack.emplace_back(c, destParent);
  };
  pushChildren(0, 0);
  while (!stack.empty()) {
    const auto [origId, destParent] = stack.back();
    stack.pop_back();
    const auto &n = nodes_[origId];
    if (!keep(n)) continue; // drop whole subtree
    pushChildren(origId, out.append(destParent, n.labelId, n.file, n.line));
  }
  return out;
}

Tree Tree::relabel(const std::function<std::string(std::string_view)> &f) const {
  Tree out = *this;
  auto &table = LabelTable::global();
  for (auto &n : out.nodes_) {
    n.labelId = table.intern(f(n.label));
    n.label = table.text(n.labelId);
  }
  out.fingerprint_.value.store(0, std::memory_order_relaxed);
  return out;
}

std::vector<u64> Tree::subtreeHashes() const {
  // Children have larger ids than their parent, so a descending sweep sees
  // every child's hash before its parent needs it.
  const auto &table = LabelTable::global();
  std::vector<u64> h(nodes_.size(), 0);
  for (usize id = nodes_.size(); id-- > 0;) {
    u64 acc = table.hash(nodes_[id].labelId);
    for (NodeId c = nodes_[id].firstChild; c != kNoNode; c = nodes_[c].nextSibling)
      acc = hashCombine(acc, h[c]);
    h[id] = acc;
  }
  return h;
}

u64 Tree::fingerprint() const {
  // Racing first calls compute the same value; a real fingerprint of 0 is
  // just recomputed every time.
  u64 fp = fingerprint_.value.load(std::memory_order_relaxed);
  if (fp == 0 && !nodes_.empty()) {
    fp = subtreeHashes()[0];
    fingerprint_.value.store(fp, std::memory_order_relaxed);
  }
  return fp;
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
  usize linked = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    SV_CHECK(id == 0 || nodes_[id].parent < id, "parent must precede child");
    NodeId prev = kNoNode;
    for (NodeId c = nodes_[id].firstChild; c != kNoNode; c = nodes_[c].nextSibling) {
      SV_CHECK(nodes_[c].parent == id, "parent/child mismatch");
      SV_CHECK(nodes_[c].prevSibling == prev, "sibling links disagree");
      prev = c;
      ++linked;
    }
    SV_CHECK(nodes_[id].lastChild == prev, "last child link disagrees");
  }
  SV_CHECK(linked + 1 == nodes_.size(), "unlinked nodes present");
}

msgpack::Value Tree::toMsgpack() const {
  msgpack::Array labels, parents, files, lines;
  labels.reserve(nodes_.size());
  for (const auto &n : nodes_) {
    labels.emplace_back(std::string(n.label));
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
  // A file is outside input, so its faults are ParseErrors, not validate()'s
  // InternalErrors. Parents precede children, which rules out cycles.
  auto &table = LabelTable::global();
  Tree t;
  t.nodes_.reserve(labels.size());
  for (usize i = 0; i < labels.size(); ++i) {
    const i64 p = parents[i].asInt();
    if ((p < 0) != (i == 0)) throw ParseError("tree: node 0 must be the one root");
    if (p >= static_cast<i64>(i)) throw ParseError("tree: a parent must precede its children");
    t.append(p < 0 ? kNoParent : static_cast<NodeId>(p), table.intern(labels[i].asString()),
             static_cast<i32>(files[i].asInt()), static_cast<i32>(lines[i].asInt()));
  }
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
