// Tree Edit Distance (Section III-B). Two interchangeable algorithms:
//
//  * Apted — in the spirit of APTED/RTED [Pawlik & Augsten 2011/2016]: an
//    O(n1*n2) strategy DP picks, for *every subtree pair*, the cheapest
//    root-leaf path decomposition (left or right path, in either tree —
//    the inner/heavy path is approximated by decomposing the larger side)
//    using exact relevant-subproblem counts, and the distance phase
//    executes that plan recursively through single-path kernels. On the
//    deep, skewed T_ir trees the paper calls out (Section IV-E) this is a
//    multiplicative win over any whole-tree orientation. The production
//    path (the default, and the only algorithm the engine caches).
//  * ZhangShasha — the classic left-path keyroot algorithm [Zhang & Shasha
//    1989]; O(n1*n2*min(depth,leaves)^2) time, O(n1*n2) space. Kept as the
//    independent oracle: it shares no DP code with Apted (both read the
//    tree's post-order walk and label ids), and together with the
//    brute-force enumerator (tests/tree/ted_bruteforce_test.cpp), which
//    compares label text, it cross-checks every Apted distance in the
//    tests and the fuzz `ted` round.
//
// Costs default to the paper's unit weight for delete/insert/relabel, but a
// TedCosts struct allows per-operation weights — the future-work knob the
// paper mentions ("adding new code may have a different productivity impact
// than removing existing code").
#pragma once

#include <span>

#include "tree/tree.hpp"

namespace sv::tree {

struct TedCosts {
  u32 del = 1;    ///< cost of deleting a node of T1
  u32 ins = 1;    ///< cost of inserting a node of T2
  u32 rename = 1; ///< cost of relabelling when labels differ (equal labels cost 0)
};

enum class TedAlgo {
  ZhangShasha, ///< always left-path decomposition (the uncached oracle)
  Apted,       ///< per-subtree-pair optimal path strategy (the default)
};

struct TedOptions {
  TedAlgo algo = TedAlgo::Apted;
  TedCosts costs{};
  /// Consulted by `tedDispatch` (tree/tedengine.hpp): route through the
  /// shared-view engine (true) or the uncached reference below (false).
  /// `ted()` itself always runs uncached and ignores this flag.
  bool useCache = true;
  /// Early-abandon threshold. 0 (the default) computes the exact distance.
  /// With cutoff > 0 every TED entry point returns exactly
  /// `min(exact, cutoff)`: the whole-tree forest DP abandons once every
  /// completion of the current post-order prefix is provably >= cutoff.
  /// Deterministic and identical between the engine and the uncached
  /// reference. No entry point checks a signature bound (tree/tedbounds.hpp)
  /// first; skipping a DP on a bound is the query layer's decision
  /// (metrics/query.cpp).
  u64 cutoff = 0;
};

/// Ceiling on one tree pair's DP memory: the TD and FD tables plus, for
/// Apted, the strategy matrix. 1 GiB is ~40x the paper deck's largest pair
/// (1707 x 1708 nodes: ~2.9 M cells, ~26 MB at u32 cells).
inline constexpr u64 kMaxPairDpBytes = u64{1} << 30;

/// Both TED algorithms call this before allocating a pair's tables:
/// throws std::runtime_error naming n1, n2 and kMaxPairDpBytes when
/// `bytesPerCell` bytes for each of the (n1 + 1) * (n2 + 1) node-pair cells
/// exceed the ceiling.
void checkPairDp(usize n1, usize n2, u64 bytesPerCell);

/// d_TED(t1, t2): minimal total cost of node deletions, insertions and
/// relabellings transforming t1 into t2. All algorithms return identical
/// values; see tests/tree/ted_test.cpp for the cross-check property suite.
[[nodiscard]] u64 ted(const Tree &t1, const Tree &t2, const TedOptions &options = {});

/// The APTED-class core: per-tree indices, the strategy DP and the
/// single-path distance kernels. Exposed so the shared-view engine
/// (tree/tedengine) can cache one index per tree, and so the ablation
/// bench and tests can inspect strategy costs directly. `ted()` with
/// TedAlgo::Apted is the self-contained entry.
namespace apted {

/// One decomposition orientation of an indexed tree. Positions are 1-based
/// post-order indices *of this orientation* (the right orientation
/// traverses mirrored child order); `toCanon` maps them back to the
/// canonical (left post-order) ids the shared TD table is keyed by. The
/// kernel reads them once per FD row for the tree whose prefixes index a
/// block's rows, and once per keyroot for the tree whose prefixes index its
/// columns: `lml` gives the path test (`lml[d] == lml[keyroot]`) and the
/// subtree-jump prefix, `toCanon` the TD offset, `label` the rename test.
struct OrientIndex {
  std::vector<u32> label;     ///< [1..n] LabelTable id
  std::vector<u32> lml;       ///< [1..n] post-order index of the path-leaf descendant
  std::vector<u32> toCanon;   ///< [1..n] orientation position -> canonical position
  std::vector<u8> isPathChild; ///< [1..n] node is the first child of its parent (this orientation)
};

/// Everything the strategy DP and the distance kernels need for one tree,
/// built once in O(n). Canonical node ids are 1-based left post-order.
/// Children are stored flat (CSR): the strategy DP sums over each node's
/// children once per node of the other tree, and `run` walks paths by them.
struct TreeIndex {
  usize n = 0;
  OrientIndex left;              ///< canonical orientation (toCanon = identity)
  OrientIndex right;             ///< mirrored child order
  std::vector<u32> canonToRight; ///< [1..n] canonical -> right post-order position
  std::vector<u32> parent;       ///< [1..n] canonical parent (0 for the root)
  std::vector<u32> childStart;   ///< [1..n+1] offsets into childIds, one run per node
  std::vector<u32> childIds;     ///< canonical child ids, per node in source order
  std::vector<u32> sz;           ///< [1..n] subtree size
  std::vector<u64> krSumLeft;    ///< [1..n] keyroot relevant-forest sum, left paths
  std::vector<u64> krSumRight;   ///< [1..n] keyroot relevant-forest sum, right paths
  std::vector<u64> fp;           ///< [1..n] Merkle subtree fingerprint (canonical order)

  /// Canonical ids of v's children, source order.
  [[nodiscard]] std::span<const u32> children(u32 v) const {
    return {childIds.data() + childStart[v], childIds.data() + childStart[v + 1]};
  }
};

/// Index `t` for the Apted pipeline: one pass over each of `t`'s two
/// post-order walks. Labels are the nodes' LabelTable ids and `fp` is
/// `t.subtreeHashes()`, so any two indices are comparable.
[[nodiscard]] TreeIndex buildIndex(const Tree &t);

/// The four single-path decompositions the strategy DP chooses between:
/// decompose along the left/right root-leaf path of the first tree's
/// subtree, or of the second tree's subtree (the larger-side choice that
/// approximates the inner/heavy path).
enum class PathKind : u8 { LeftA = 0, RightA = 1, LeftB = 2, RightB = 3 };
[[nodiscard]] const char *pathKindName(PathKind k);

/// The per-subtree-pair decomposition plan. `pick[(v-1)*n2 + (w-1)]` holds
/// the PathKind for canonical subtree pair (v, w); `cost` is the exact
/// relevant-subproblem count of the optimal plan at the root pair (always
/// <= the best whole-tree orientation product). As in APTED, a plan is
/// computed for one pair, executed once and dropped: it takes n1 * n2
/// bytes, and every caller (`ted()` and the engine) runs it right away.
struct Strategy {
  usize n1 = 0, n2 = 0;
  std::vector<u8> pick;
  u64 cost = 0;

  [[nodiscard]] PathKind at(usize v, usize w) const {
    return static_cast<PathKind>(pick[(v - 1) * n2 + (w - 1)]);
  }
};

/// The O(n1*n2) strategy DP over all subtree pairs, bottom-up in both
/// trees. Structural only: independent of TedCosts. Checks the pair
/// against kMaxPairDpBytes (matrix plus the narrowest TD/FD a run needs)
/// before allocating.
[[nodiscard]] Strategy computeStrategy(const TreeIndex &a, const TreeIndex &b);

/// Execution counters for one distance run, attributed per path kind so
/// the bench can report the strategy-choice histogram.
struct RunCounters {
  u64 kernels[4] = {0, 0, 0, 0};     ///< single-path kernels executed, by PathKind
  u64 subproblems[4] = {0, 0, 0, 0}; ///< forest-DP cells computed, by PathKind
  u64 blockHits = 0;                 ///< subtree-pair TD rectangles replayed by fingerprint
};

/// Execute the strategy: recursively solve the subtree pairs hanging off
/// each chosen path, then run the single-path kernel for the path itself.
/// With `reuseBlocks`, repeated (fingerprint, fingerprint) subtree pairs
/// replay their TD rectangle instead of recomputing (the engine turns this
/// on; it owns a cross-call fingerprint space).
/// With `cutoff > 0` the whole-tree kernel early-abandons per the
/// TedOptions::cutoff contract and `run` returns exactly cutoff; pairs
/// that complete return the exact distance (callers clamp).
/// DP cells are u32 when 2 * (n1 + n2) * max(costs) fits in 32 bits (every
/// forest distance and every jump sum then does), u64 otherwise; the pair
/// is checked against kMaxPairDpBytes at that width before allocating.
[[nodiscard]] u64 run(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy,
                      const TedCosts &costs, bool reuseBlocks, RunCounters *counters,
                      u64 cutoff = 0);

} // namespace apted

} // namespace sv::tree
