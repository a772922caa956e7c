// The generic ordered, labelled n-ary tree that every semantic-bearing tree
// (T_src, T_sem, T_sem+i, T_ir — Section III-A) is represented as. Nodes are
// stored in a flat vector (structure-of-arrays-ish) for cache-friendly
// traversal; every node keeps the source back-reference (file id + line)
// that the paper calls out as crucial for coverage masking and dependency
// reconstruction.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"
#include "support/msgpack.hpp"

namespace sv::tree {

/// Index of a node inside its Tree. The root is always index 0.
using NodeId = u32;
constexpr u32 kNoParent = 0xFFFFFFFFu;

struct Node {
  std::string label;            ///< normalised label (node kind, operator, literal, ...)
  u32 parent = kNoParent;       ///< kNoParent for the root
  std::vector<NodeId> children; ///< in source order
  i32 file = -1;                ///< source file id within the owning codebase (-1: synthetic)
  i32 line = -1;                ///< 1-based source line (-1: synthetic)
};

/// An ordered labelled tree. Invariants (checked by validate()):
/// node 0 is the root; children lists are consistent with parent fields;
/// every non-root node is reachable from the root.
class Tree {
public:
  Tree() = default;

  /// Create a tree with just a root node.
  static Tree leaf(std::string label, i32 file = -1, i32 line = -1);

  /// Append a child under `parent` and return its id.
  NodeId addChild(NodeId parent, std::string label, i32 file = -1, i32 line = -1);

  [[nodiscard]] usize size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  [[nodiscard]] const Node &node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] Node &node(NodeId id) { return nodes_[id]; }
  [[nodiscard]] const std::vector<Node> &nodes() const { return nodes_; }

  /// Depth of the deepest node (root = 1); 0 for the empty tree.
  [[nodiscard]] usize depth() const;

  /// Number of leaves.
  [[nodiscard]] usize leafCount() const;

  /// Post-order node ids (left-to-right). The basis for the TED algorithms.
  [[nodiscard]] std::vector<NodeId> postorder() const;

  /// Graft a deep copy of `other` (rooted at `otherRoot`) under `parent`;
  /// returns the id of the copied root.
  NodeId graft(NodeId parent, const Tree &other, NodeId otherRoot = 0);

  /// Return a new tree where any node failing `keep` is removed *together
  /// with its whole subtree*. Used for coverage masking: unexecuted regions
  /// disappear entirely (Section III-A / IV-D).
  [[nodiscard]] Tree pruneWhere(const std::function<bool(const Node &)> &keep) const;

  /// Relabel every node via `f(label) -> label`.
  [[nodiscard]] Tree relabel(const std::function<std::string(const std::string &)> &f) const;

  /// Structural fingerprint: equal trees hash equal. Ignores file/line.
  [[nodiscard]] u64 fingerprint() const;

  /// Multi-line ASCII rendering for debugging and the Fig 1 bench.
  [[nodiscard]] std::string pretty(usize maxDepth = ~usize{0}) const;

  /// Throw InternalError if invariants are violated.
  void validate() const;

  /// MessagePack round-trip, used by the Codebase DB.
  [[nodiscard]] msgpack::Value toMsgpack() const;
  static Tree fromMsgpack(const msgpack::Value &v);

private:
  /// Pre-order visit: f(id, depth).
  void visitPreorder(const std::function<void(NodeId, usize)> &f) const;

  std::vector<Node> nodes_;
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
