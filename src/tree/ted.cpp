#include "tree/ted.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sv::tree {

namespace {

/// Post-order view of a tree with everything Zhang–Shasha needs:
/// 1-based post-order positions, label ids, leftmost-leaf indices and
/// keyroots. Built once per tree per comparison.
struct PostView {
  usize n = 0;
  std::vector<u32> label;     ///< [1..n] LabelTable id
  std::vector<usize> lml;     ///< [1..n] post-order index of leftmost leaf descendant
  std::vector<usize> keyroots; ///< ascending
};

PostView makeView(const Tree &t) {
  PostView v;
  v.n = t.size();
  v.label.assign(v.n + 1, 0);
  v.lml.assign(v.n + 1, 0);
  if (v.n == 0) return v;

  // Node id -> post-order position (1-based). A node's first child comes
  // before it in post-order, so its lml is already set. The keyroots (no
  // j > i shares lml(i)) are the root and every node with a left sibling.
  const std::vector<NodeId> order = t.postorder();
  std::vector<usize> pos(v.n, 0);
  for (usize i = 1; i <= v.n; ++i) {
    const Node &node = t.node(order[i - 1]);
    pos[order[i - 1]] = i;
    v.label[i] = node.labelId;
    v.lml[i] = node.firstChild == kNoNode ? i : v.lml[pos[node.firstChild]];
    if (i == v.n || node.prevSibling != kNoNode) v.keyroots.push_back(i);
  }
  return v;
}

/// Full Zhang–Shasha on two post-order views. With `cutoff > 0`, returns
/// min(exact, cutoff): the final keyroot pair — the only one whose forest
/// prefixes are whole-tree post-order prefixes — abandons once
/// min_y(FD(x, y) + sizeLB(remaining)) reaches the cutoff (see the
/// admissibility argument in tedapted.cpp's runKernelPairs).
u64 zhangShasha(const PostView &a, const PostView &b, const TedCosts &costs, u64 cutoff = 0) {
  const u64 noCut = ~u64{0};
  if (a.n == 0) return std::min(static_cast<u64>(b.n) * costs.ins, cutoff ? cutoff : noCut);
  if (b.n == 0) return std::min(static_cast<u64>(a.n) * costs.del, cutoff ? cutoff : noCut);

  checkPairDp(a.n, b.n, 2 * sizeof(u64)); // TD and FD
  // treedist[i][j], 1-based.
  std::vector<u64> td((a.n + 1) * (b.n + 1), 0);
  const auto TD = [&](usize i, usize j) -> u64 & { return td[i * (b.n + 1) + j]; };

  // Forest-distance scratch; sized for the largest keyroot subproblem.
  std::vector<u64> fd((a.n + 2) * (b.n + 2), 0);

  for (const usize i : a.keyroots) {
    const usize li = a.lml[i];
    const usize rows = i - li + 2; // forest prefixes 0..(i-li+1)
    for (const usize j : b.keyroots) {
      const usize lj = b.lml[j];
      const usize cols = j - lj + 2;
      const auto FD = [&](usize x, usize y) -> u64 & { return fd[x * cols + y]; };
      const bool wholeSpan = cutoff > 0 && rows - 1 == a.n && cols - 1 == b.n;

      FD(0, 0) = 0;
      for (usize x = 1; x < rows; ++x) FD(x, 0) = FD(x - 1, 0) + costs.del;
      for (usize y = 1; y < cols; ++y) FD(0, y) = FD(0, y - 1) + costs.ins;

      for (usize x = 1; x < rows; ++x) {
        const usize di = li + x - 1; // node in a
        for (usize y = 1; y < cols; ++y) {
          const usize dj = lj + y - 1; // node in b
          const u64 delCost = FD(x - 1, y) + costs.del;
          const u64 insCost = FD(x, y - 1) + costs.ins;
          if (a.lml[di] == li && b.lml[dj] == lj) {
            const u64 ren = a.label[di] == b.label[dj] ? 0 : costs.rename;
            const u64 sub = FD(x - 1, y - 1) + ren;
            const u64 best = std::min({delCost, insCost, sub});
            FD(x, y) = best;
            TD(di, dj) = best;
          } else {
            // Jump over the complete subtrees rooted at di, dj.
            const usize px = a.lml[di] - li;     // forest prefix before subtree(di)
            const usize py = b.lml[dj] - lj;
            const u64 sub = FD(px, py) + TD(di, dj);
            FD(x, y) = std::min({delCost, insCost, sub});
          }
        }
        if (wholeSpan) {
          u64 best = noCut;
          for (usize y = 0; y < cols; ++y) {
            const u64 remA = a.n - x;
            const u64 remB = b.n - y;
            const u64 rem = remA >= remB ? (remA - remB) * costs.del : (remB - remA) * costs.ins;
            best = std::min(best, FD(x, y) + rem);
          }
          if (best >= cutoff) return cutoff;
        }
      }
    }
  }
  const u64 exact = TD(a.n, b.n);
  return cutoff ? std::min(exact, cutoff) : exact;
}

} // namespace

void checkPairDp(usize n1, usize n2, u64 bytesPerCell) {
  u64 cells = 0, bytes = 0;
  const bool overflow = __builtin_mul_overflow(u64{n1} + 1, u64{n2} + 1, &cells) ||
                        __builtin_mul_overflow(cells, bytesPerCell, &bytes);
  if (!overflow && bytes <= kMaxPairDpBytes) return;
  throw std::runtime_error("tree edit distance: a " + std::to_string(n1) + " x " +
                           std::to_string(n2) + "-node pair needs more DP memory than the " +
                           std::to_string(kMaxPairDpBytes) + "-byte limit per pair");
}

u64 ted(const Tree &t1, const Tree &t2, const TedOptions &options) {
  if (options.algo == TedAlgo::Apted) {
    // Self-contained entry: index both trees, plan, execute. Block reuse is
    // the engine's job (it owns a cross-call fingerprint space); the
    // uncached path skips it.
    const apted::TreeIndex a = apted::buildIndex(t1);
    const apted::TreeIndex b = apted::buildIndex(t2);
    const apted::Strategy strategy = apted::computeStrategy(a, b);
    return apted::run(a, b, strategy, options.costs, /*reuseBlocks=*/false, nullptr,
                      options.cutoff);
  }
  return zhangShasha(makeView(t1), makeView(t2), options.costs, options.cutoff);
}

} // namespace sv::tree
