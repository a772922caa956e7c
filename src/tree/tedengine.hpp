// Shared-view TED engine (the perf layer over tree/ted, Section VII): the
// pairwise TED calls over the cartesian product of model ports dominate
// end-to-end runtime, and the uncached `tree::ted()` re-indexes both trees
// per comparison. The engine makes each pair cheap by precomputing
// per-tree structure once:
//
//  * a per-tree cached view — one `apted::TreeIndex` (both decomposition
//    orientations, keyroot sums, Merkle subtree fingerprints) — built once
//    and shared across all O(M^2 * U) comparisons. Labels are the trees'
//    own LabelTable ids (tree/tree.hpp), so the engine interns nothing.
//    Views are keyed by (structural fingerprint, node count), so
//    byte-identical trees (shared headers across model ports) share one
//    view; the tree caches its fingerprint, so a view hit, a memo hit and
//    the whole-tree shortcut do O(1) work in tree size;
//  * a whole-tree equality short-circuit (`ted == 0`);
//  * a symmetric pair memo keyed on (fingerprint, fingerprint, costs):
//    ted(a, b, {del, ins, ren}) == ted(b, a, {ins, del, ren}), so
//    diverge(a, b) and diverge(b, a) share the TED work and only the
//    asymmetric dmax/unmatched accounting is recomputed. It is the engine's
//    one cross-call DP cache and records the outcome of every DP: a
//    completed DP stores its exact distance; a DP abandoned at cutoff c
//    stores c as a proven lower bound (raised by a later, higher
//    abandonment) that answers any later cutoff <= c. Any other query runs
//    the DP, and its exact result replaces the bound. The DP always runs in
//    the memo's canonical orientation (swapping trees and del/ins together
//    preserves the distance), and its O(n1 * n2) Apted strategy matrix is
//    computed per run and dropped with it;
//  * subtree-pair TD reuse inside one run: any repeated (fingerprint,
//    fingerprint) subtree pair replays its TD rectangle;
//  * cutoff mode (TedOptions::cutoff > 0): a memo miss runs the DP with
//    in-kernel early abandon. The engine checks no signature bound: the
//    query layer (metrics/query.cpp) is the one place that skips a DP
//    because a lower bound already reaches the cutoff.
//
// The engine runs Apted only. A TedAlgo::ZhangShasha request is forwarded
// to the uncached `tree::ted()`, so the oracle never shares the engine's
// caches. The engine is byte-identical to the uncached reference on every
// input (tests/tree/tedengine_test.cpp and the corpus parity suite assert
// this).
#pragma once

#include <memory>

#include "tree/ted.hpp"

namespace sv::tree {

/// Cache-effectiveness counters, exposed for tests and the ted bench.
struct EngineStats {
  u64 viewHits = 0;            ///< views() served from the cache
  u64 viewMisses = 0;          ///< views() that had to build
  /// ted() answered from the pair memo: by an exact distance, or by a
  /// recorded lower bound that reaches the query's cutoff
  u64 memoHits = 0;
  u64 memoMisses = 0;          ///< ted() that ran a DP
  u64 wholeTreeShortcuts = 0;  ///< ted() == 0 via equal root fingerprints
  u64 strategyMisses = 0;      ///< Apted strategy DPs run: one per DP, never reused
  u64 spfKernels[4] = {0, 0, 0, 0};     ///< single-path kernels run, by apted::PathKind
  u64 spfSubproblems[4] = {0, 0, 0, 0}; ///< forest-DP cells, by apted::PathKind
  u64 subtreeBlockHits = 0;    ///< Apted subtree-pair TD rectangles replayed
  // Cutoff-mode (TedOptions::cutoff > 0) outcome split. Every cutoff query
  // that is not a view shortcut or memo hit lands in exactly one bucket.
  /// Always 0: the engine runs no bound precheck (the query layer filters).
  /// Kept so readers of the stats keep their field.
  u64 prunedByBound = 0;
  u64 prunedByCutoff = 0; ///< DP resolved at the cutoff ceiling (abandoned, or exact == cutoff)
  u64 cutoffExact = 0;    ///< DP completed with an exact distance below the cutoff
};

/// Thread-safe cached TED evaluator. One global instance serves the whole
/// process (metrics::diverge, silvervale::divergenceMatrix, the benches);
/// independent instances can be created for isolation in tests.
class TedEngine {
public:
  TedEngine();
  ~TedEngine();

  TedEngine(const TedEngine &) = delete;
  TedEngine &operator=(const TedEngine &) = delete;

  /// The process-wide engine used by `tedDispatch`.
  static TedEngine &global();

  /// Cached d_TED(a, b): byte-identical to `tree::ted(a, b, options)`.
  /// Thread-safe; concurrent calls share views and memo entries. Always
  /// runs Apted; `algo == ZhangShasha` is forwarded to the uncached
  /// `tree::ted()` and touches no cache or counter.
  [[nodiscard]] u64 ted(const Tree &a, const Tree &b, const TedOptions &options = {});

  /// The shared Apted index of `t` (both orientations, canonical ids,
  /// keyroot sums, subtree fingerprints), building it on first use. Keyed by (fingerprint, size):
  /// structurally identical trees share. `fp[n] == t.fingerprint()` for a
  /// non-empty tree.
  [[nodiscard]] std::shared_ptr<const apted::TreeIndex> views(const Tree &t);

  [[nodiscard]] EngineStats stats() const;

  /// Drop cached views, memo entries and stats. Label ids are append-only
  /// (LabelTable), so views still held by callers stay valid.
  void clear();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Route through the global engine when `options.useCache` (the default), or
/// the uncached reference `tree::ted()` otherwise — the engine on/off switch
/// used by metrics::diverge and the benches.
[[nodiscard]] u64 tedDispatch(const Tree &a, const Tree &b, const TedOptions &options = {});

} // namespace sv::tree
