// The generic ordered, labelled n-ary tree that every semantic-bearing tree
// (T_src, T_sem, T_sem+i, T_ir — Section III-A) is represented as, and the
// one form every layer reads: the TED algorithms index it in place. Labels
// live once per process in the append-only `LabelTable`, so a node holds a
// label id and a view of its text and owns no heap memory. Children are
// sibling links, so `addChild` appends in O(1); a parent's id is always
// below its children's. The fingerprint is cached; every mutator drops it.
// Every node keeps the source back-reference (file id + line) that the
// paper calls out as crucial for coverage masking and dependency
// reconstruction.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/common.hpp"
#include "support/msgpack.hpp"

namespace sv::tree {

/// Index of a node inside its Tree. The root is always index 0.
using NodeId = u32;
constexpr u32 kNoParent = 0xFFFFFFFFu;
constexpr NodeId kNoNode = kNoParent; ///< absent child or sibling link

/// Index of a label in a LabelTable.
using LabelId = u32;

/// One id per distinct label text, with the text and its fnv1a hash
/// (computed once). Append-only and thread-safe: `intern` takes a lock,
/// reads by id take none, because a published entry never moves.
///
/// Ids depend on the order in which threads first intern each text, so
/// they are for equality tests only: nothing may order or hash output by
/// id (hash the text, `hash(id)`, instead).
class LabelTable {
public:
  /// Ceiling on distinct labels per table: interning one more throws a
  /// std::runtime_error naming it.
  static constexpr usize kMaxLabels = usize{1} << 22;

  explicit LabelTable(usize maxLabels = kMaxLabels);

  /// The table every Tree interns into.
  static LabelTable &global();

  [[nodiscard]] LabelId intern(std::string_view text);
  [[nodiscard]] std::string_view text(LabelId id) const { return entry(id).text; }
  [[nodiscard]] u64 hash(LabelId id) const { return entry(id).hash; }

private:
  struct Entry {
    std::string text;
    u64 hash = 0;
  };
  static constexpr usize kChunk = 4096;

  // A reader holds an id only after intern() published its entry, and so
  // its chunk: the slot it reads was written before it could ask.
  [[nodiscard]] const Entry &entry(LabelId id) const { return chunks_[id / kChunk][id % kChunk]; }

  usize maxLabels_;
  std::vector<std::unique_ptr<Entry[]>> chunks_; ///< sized once; blocks never move
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string_view, LabelId> ids_; ///< views into the entries
};

struct Node {
  std::string_view label;         ///< normalised label (node kind, operator, literal, ...)
  LabelId labelId = 0;            ///< `label`'s id in LabelTable::global()
  u32 parent = kNoParent;         ///< kNoParent for the root
  NodeId firstChild = kNoNode;    ///< children in source order: firstChild, then
  NodeId lastChild = kNoNode;     ///< nextSibling links up to lastChild
  NodeId prevSibling = kNoNode;
  NodeId nextSibling = kNoNode;
  i32 file = -1;                  ///< source file id within the owning codebase (-1: synthetic)
  i32 line = -1;                  ///< 1-based source line (-1: synthetic)
};

/// An ordered labelled tree. Invariants (checked by validate()):
/// node 0 is the root; every other node's parent has a smaller id; the
/// sibling links of each node's children agree with their parent fields.
class Tree {
public:
  Tree() = default;

  /// Create a tree with just a root node.
  static Tree leaf(std::string_view label, i32 file = -1, i32 line = -1);

  /// Append a child under `parent` (after its existing children) and
  /// return its id.
  NodeId addChild(NodeId parent, std::string_view label, i32 file = -1, i32 line = -1);

  [[nodiscard]] usize size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] const Node &node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const std::vector<Node> &nodes() const { return nodes_; }

  /// Depth of the deepest node (root = 1); 0 for the empty tree.
  [[nodiscard]] usize depth() const;

  /// Number of leaves.
  [[nodiscard]] usize leafCount() const;

  /// Post-order node ids, children left to right — or right to left when
  /// `mirrored`. The one walk the TED algorithms index trees by.
  [[nodiscard]] std::vector<NodeId> postorder(bool mirrored = false) const;

  /// Graft a deep copy of `other` (rooted at `otherRoot`) under `parent`;
  /// returns the id of the copied root.
  NodeId graft(NodeId parent, const Tree &other, NodeId otherRoot = 0);

  /// Return a new tree where any node failing `keep` is removed *together
  /// with its whole subtree*. Used for coverage masking: unexecuted regions
  /// disappear entirely (Section III-A / IV-D).
  [[nodiscard]] Tree pruneWhere(const std::function<bool(const Node &)> &keep) const;

  /// Relabel every node via `f(label) -> label`.
  [[nodiscard]] Tree relabel(const std::function<std::string(std::string_view)> &f) const;

  /// The Merkle hash of every node's subtree, by node id: the label's
  /// fnv1a combined with the children's hashes in order. Ignores file/line.
  [[nodiscard]] std::vector<u64> subtreeHashes() const;

  /// Structural fingerprint, the root's subtree hash (0 for the empty
  /// tree): equal trees hash equal. Computed on first use and cached;
  /// safe to call from several threads on one shared tree.
  [[nodiscard]] u64 fingerprint() const;

  /// Multi-line ASCII rendering for debugging and the Fig 1 bench.
  [[nodiscard]] std::string pretty(usize maxDepth = ~usize{0}) const;

  /// Throw InternalError if invariants are violated.
  void validate() const;

  /// MessagePack round-trip, used by the Codebase DB. Labels are stored as
  /// strings and interned on load.
  [[nodiscard]] msgpack::Value toMsgpack() const;
  static Tree fromMsgpack(const msgpack::Value &v);

private:
  /// A cached hash that copies as a plain value; 0 means not computed.
  struct CachedHash {
    mutable std::atomic<u64> value{0};
    CachedHash() = default;
    CachedHash(const CachedHash &o) noexcept : value(o.value.load()) {}
    CachedHash &operator=(const CachedHash &o) noexcept {
      value = o.value.load();
      return *this;
    }
  };

  /// Link a new node after `parent`'s last child (kNoParent: the root).
  NodeId append(NodeId parent, LabelId label, i32 file, i32 line);

  /// Pre-order visit: f(id, depth).
  void visitPreorder(const std::function<void(NodeId, usize)> &f) const;

  std::vector<Node> nodes_;
  CachedHash fingerprint_;
};

/// Convenience recursive builder for tests and examples:
///   auto t = build("Fn", {build("Param"), build("Body", {build("Ret")})});
struct Builder {
  std::string label;
  std::vector<Builder> children;
};
[[nodiscard]] Builder build(std::string label, std::vector<Builder> children = {});
[[nodiscard]] Tree toTree(const Builder &b);

} // namespace sv::tree
