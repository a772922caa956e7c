// The APTED-class TED core (tree/ted.hpp `apted` namespace): per-tree
// indices, the O(n1*n2) optimal path-strategy DP, and the single-path
// distance kernels that execute the plan recursively.
//
// Correctness sketch. `run(v, w)` fills TD(a, b) for *every* pair
// a in subtree(v), b in subtree(w):
//  * decomposing in A (Left/RightA) recursively solves each subtree
//    hanging off the chosen root-leaf path of v against the whole of
//    subtree(w) (all x all by induction), then the single-path kernel —
//    one Zhang–Shasha keyroot iteration for the path, against every local
//    keyroot of w — fills path(v) x subtree(w). Path and hanging subtrees
//    partition subtree(v), so the union is all x all.
//  * decomposing in B is symmetric. The forest DP's jump reads only hit
//    entries one of those two sources has already produced (hanging pairs
//    recursively; on-path pairs in an earlier keyroot iteration), exactly
//    mirroring the classic Zhang–Shasha fill order.
// Right-path kernels operate on mirrored post-order views — mirroring both
// trees leaves the distance invariant — and translate positions back to
// canonical ids so all four kernels share one TD table.
#include "tree/ted.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/hash.hpp"

namespace sv::tree::apted {

namespace {

/// One post-order traversal: node ids in visit order plus the inverse map.
struct Traversal {
  std::vector<NodeId> order;
  std::vector<u32> pos; ///< node id -> 1-based post-order position
};

Traversal postorderOf(const Tree &t, bool mirrored) {
  Traversal tr;
  const usize n = t.size();
  tr.order.reserve(n);
  tr.pos.assign(n, 0);
  std::vector<std::pair<NodeId, usize>> stack{{0, 0}};
  while (!stack.empty()) {
    auto &[id, cursor] = stack.back();
    const auto &ch = t.node(id).children;
    if (cursor < ch.size()) {
      const NodeId next = mirrored ? ch[ch.size() - 1 - cursor] : ch[cursor];
      ++cursor;
      stack.emplace_back(next, 0);
    } else {
      tr.order.push_back(id);
      stack.pop_back();
    }
  }
  for (usize i = 0; i < tr.order.size(); ++i) tr.pos[tr.order[i]] = static_cast<u32>(i + 1);
  return tr;
}

OrientIndex makeOrient(const Tree &t, const Traversal &tr, bool mirrored,
                       const std::function<u32(const std::string &)> &intern,
                       const std::vector<u32> &canonPos) {
  OrientIndex v;
  const usize n = t.size();
  v.label.assign(n + 1, 0);
  v.lml.assign(n + 1, 0);
  v.toCanon.assign(n + 1, 0);
  v.isPathChild.assign(n + 1, 0);
  for (usize i = 1; i <= n; ++i) {
    const NodeId id = tr.order[i - 1];
    const auto &node = t.node(id);
    v.label[i] = intern(node.label);
    v.toCanon[i] = canonPos[id];
    const auto &ch = node.children;
    if (ch.empty()) {
      v.lml[i] = static_cast<u32>(i);
    } else {
      const NodeId first = mirrored ? ch.back() : ch.front();
      v.lml[i] = v.lml[tr.pos[first]];
      v.isPathChild[tr.pos[first]] = 1;
    }
  }
  return v;
}

/// Local keyroots of the subtree rooted at `root` (an orientation
/// position), ascending: the root plus every proper descendant that is not
/// on its parent's path in this orientation.
std::vector<u32> localKeyroots(const OrientIndex &v, u32 root) {
  std::vector<u32> out;
  for (u32 u = v.lml[root]; u < root; ++u)
    if (!v.isPathChild[u]) out.push_back(u);
  out.push_back(root);
  return out;
}

/// The Zhang–Shasha forest DP over every (A keyroot, B keyroot) pair of the
/// given lists, in one orientation. Byte-identical recurrence to ted.cpp's
/// reference; TD reads/writes go through the canonical maps so left- and
/// right-orientation kernels share one table. Returns the DP cell count.
///
/// With `cutoff > 0`, the iteration spanning both *whole* trees (only ever
/// the root pair's final kernel) early-abandons: after filling prefix row
/// x, any complete edit mapping splits into a mapping between the
/// post-order prefixes A[1..x] / B[1..y] (costing >= FD(x, y), the true
/// prefix forest distance in that iteration) and a mapping between the
/// remainders (costing >= the size bound on them) — so
///   d(T1, T2) >= min_y ( FD(x, y) + sizeLB(fullA - x, fullB - y) ),
/// and once that reaches the cutoff no completion can beat it. Admissible:
/// never fires when the exact distance is below the cutoff. Only the
/// whole-tree span qualifies because inner iterations' FD rows are forest
/// distances of partial keyroot forests, not tree prefixes.
u64 runKernelPairs(const OrientIndex &A, const OrientIndex &B, const std::vector<u32> &aKrs,
                   const std::vector<u32> &bKrs, const TedCosts &costs, std::vector<u64> &td,
                   usize tdStride, std::vector<u64> &fd, usize fullA, usize fullB, u64 cutoff,
                   bool *abandoned) {
  u64 cells = 0;
  const auto TD = [&](u32 ci, u32 cj) -> u64 & {
    return td[static_cast<usize>(ci) * tdStride + cj];
  };
  for (const u32 i : aKrs) {
    const u32 li = A.lml[i];
    const usize rows = i - li + 2; // forest prefixes 0..(i-li+1)
    for (const u32 j : bKrs) {
      const u32 lj = B.lml[j];
      const usize cols = j - lj + 2;
      const auto FD = [&](usize x, usize y) -> u64 & { return fd[x * cols + y]; };
      const bool wholeSpan = cutoff > 0 && rows - 1 == fullA && cols - 1 == fullB;

      FD(0, 0) = 0;
      for (usize x = 1; x < rows; ++x) FD(x, 0) = FD(x - 1, 0) + costs.del;
      for (usize y = 1; y < cols; ++y) FD(0, y) = FD(0, y - 1) + costs.ins;

      for (usize x = 1; x < rows; ++x) {
        const u32 di = li + static_cast<u32>(x) - 1;
        for (usize y = 1; y < cols; ++y) {
          const u32 dj = lj + static_cast<u32>(y) - 1;
          const u64 delCost = FD(x - 1, y) + costs.del;
          const u64 insCost = FD(x, y - 1) + costs.ins;
          if (A.lml[di] == li && B.lml[dj] == lj) {
            const u64 ren = A.label[di] == B.label[dj] ? 0 : costs.rename;
            const u64 best = std::min({delCost, insCost, FD(x - 1, y - 1) + ren});
            FD(x, y) = best;
            TD(A.toCanon[di], B.toCanon[dj]) = best;
          } else {
            // Jump over the complete subtrees rooted at di, dj.
            const usize px = A.lml[di] - li;
            const usize py = B.lml[dj] - lj;
            const u64 sub = FD(px, py) + TD(A.toCanon[di], B.toCanon[dj]);
            FD(x, y) = std::min({delCost, insCost, sub});
          }
        }
        if (wholeSpan) {
          const u64 remA = static_cast<u64>(fullA - x);
          u64 best = ~u64{0};
          for (usize y = 0; y < cols; ++y) {
            const u64 remB = static_cast<u64>(fullB - y);
            const u64 rem = remA >= remB ? (remA - remB) * costs.del : (remB - remA) * costs.ins;
            best = std::min(best, FD(x, y) + rem);
          }
          if (best >= cutoff) {
            cells += x * (cols - 1);
            *abandoned = true;
            return cells;
          }
        }
      }
      cells += (rows - 1) * (cols - 1);
    }
  }
  return cells;
}

/// Identifies one subtree pair's TD rectangle by content: equal keys imply
/// identical subtree labels/shapes on both sides, hence identical TD values
/// under the run's fixed costs.
struct BlockKey {
  u64 fa = 0, fb = 0;
  u32 na = 0, nb = 0;
  bool operator==(const BlockKey &) const = default;
};

struct BlockKeyHash {
  usize operator()(const BlockKey &k) const {
    return static_cast<usize>(
        hashCombine(hashCombine(k.fa, k.fb), (static_cast<u64>(k.na) << 32) | k.nb));
  }
};

} // namespace

const char *pathKindName(PathKind k) {
  switch (k) {
  case PathKind::LeftA: return "leftA";
  case PathKind::RightA: return "rightA";
  case PathKind::LeftB: return "leftB";
  case PathKind::RightB: return "rightB";
  }
  return "?";
}

TreeIndex buildIndex(const Tree &t, const std::function<u32(const std::string &)> &intern) {
  TreeIndex ix;
  ix.n = t.size();
  if (ix.n == 0) return ix;

  const auto L = postorderOf(t, false);
  const auto R = postorderOf(t, true);
  ix.left = makeOrient(t, L, false, intern, L.pos);
  ix.right = makeOrient(t, R, true, intern, L.pos);
  ix.canonToRight.assign(ix.n + 1, 0);
  for (usize r = 1; r <= ix.n; ++r) ix.canonToRight[ix.right.toCanon[r]] = static_cast<u32>(r);

  ix.parent.assign(ix.n + 1, 0);
  ix.children.assign(ix.n + 1, {});
  ix.sz.assign(ix.n + 1, 0);
  ix.krSumLeft.assign(ix.n + 1, 0);
  ix.krSumRight.assign(ix.n + 1, 0);
  ix.fp.assign(ix.n + 1, 0);

  // Relevant-forest span of the path rooted at a canonical node, per
  // orientation: position-independent, so global post-order spans serve
  // every subtree-local computation.
  const auto lspan = [&](u32 cpos) { return static_cast<u64>(cpos - ix.left.lml[cpos] + 1); };
  const auto rspan = [&](u32 cpos) {
    const u32 rp = ix.canonToRight[cpos];
    return static_cast<u64>(rp - ix.right.lml[rp] + 1);
  };

  for (u32 i = 1; i <= ix.n; ++i) {
    const NodeId id = L.order[i - 1];
    const auto &node = t.node(id);
    if (node.parent != kNoParent) ix.parent[i] = L.pos[node.parent];
    auto &ch = ix.children[i];
    ch.reserve(node.children.size());
    for (const NodeId c : node.children) ch.push_back(L.pos[c]);

    // Post-order: every child's aggregate is final here. The keyroot sums
    // follow L(u) = span(u) + sum_c L(c) - span(pathChild): the path
    // child's own relevant forest merges into u's extended span, every
    // other child keeps its keyroots.
    u32 size = 1;
    u64 fp = fnv1a(node.label);
    u64 sumL = 0, sumR = 0;
    for (const u32 c : ch) {
      size += ix.sz[c];
      fp = hashCombine(fp, ix.fp[c]);
      sumL += ix.krSumLeft[c];
      sumR += ix.krSumRight[c];
    }
    ix.sz[i] = size;
    ix.fp[i] = fp;
    ix.krSumLeft[i] = lspan(i) + sumL - (ch.empty() ? 0 : lspan(ch.front()));
    ix.krSumRight[i] = rspan(i) + sumR - (ch.empty() ? 0 : rspan(ch.back()));
  }
  return ix;
}

Strategy computeStrategy(const TreeIndex &a, const TreeIndex &b) {
  Strategy s;
  s.n1 = a.n;
  s.n2 = b.n;
  if (a.n == 0 || b.n == 0) return s;
  const usize n2 = b.n;
  s.pick.assign(a.n * n2, 0);

  // Rolling rows over w (1-based). cost(v, w) is the minimal subproblem
  // count for the pair; the H rows accumulate the recursive cost of the
  // subtree pairs hanging off each candidate path:
  //   H_L(v, w)  = sum over subtrees f hanging off v's left path of cost(f, w)
  //              = H_L(firstChild) + sum over the other children's cost
  //   H'_L(v, w) = the symmetric sum for w's left path (within-row, since
  //                w's children precede w in post-order)
  // and right-path variants. Only O(depth) parent accumulators plus the
  // previous node's rows are alive at any time, keeping the DP at
  // O(n1*n2) time and O(depth1 * n2) extra space.
  std::vector<u64> costRow(n2 + 1, 0), hlRow(n2 + 1, 0), hrRow(n2 + 1, 0);
  std::vector<u64> hplRow(n2 + 1, 0), hprRow(n2 + 1, 0);
  std::vector<u64> prevCost(n2 + 1, 0), prevHr(n2 + 1, 0);

  struct ParentAcc {
    std::vector<u64> sumAll;          ///< sum of completed children's cost rows
    std::vector<u64> c1Cost, c1Hl;    ///< first child's cost and H_L rows
  };
  std::unordered_map<u32, ParentAcc> accs;

  u64 rootCost = 0;
  for (u32 v = 1; v <= a.n; ++v) {
    const auto &chA = a.children[v];
    if (chA.empty()) {
      std::fill(hlRow.begin(), hlRow.end(), 0);
      std::fill(hrRow.begin(), hrRow.end(), 0);
    } else {
      // Post-order guarantees the accumulator is complete, and that the
      // node processed immediately before v is its last child — whose cost
      // and H_R rows still sit in prevCost/prevHr.
      const auto it = accs.find(v);
      const ParentAcc &acc = it->second;
      for (usize w = 1; w <= n2; ++w) {
        hlRow[w] = acc.c1Hl[w] + (acc.sumAll[w] - acc.c1Cost[w]);
        hrRow[w] = prevHr[w] + (acc.sumAll[w] - prevCost[w]);
      }
      accs.erase(it);
    }

    const u64 szv = a.sz[v];
    const u64 krLa = a.krSumLeft[v], krRa = a.krSumRight[v];
    for (u32 w = 1; w <= n2; ++w) {
      const auto &chB = b.children[w];
      u64 hpl = 0, hpr = 0;
      if (!chB.empty()) {
        hpl = hplRow[chB.front()];
        hpr = hprRow[chB.back()];
        for (usize k = 0; k < chB.size(); ++k) {
          if (k != 0) hpl += costRow[chB[k]];
          if (k + 1 != chB.size()) hpr += costRow[chB[k]];
        }
      }
      // Single-path kernel cost: the path-relevant forest of the
      // decomposed side (the whole subtree) against every local keyroot
      // forest of the other side.
      const u64 cLA = hlRow[w] + szv * b.krSumLeft[w];
      const u64 cRA = hrRow[w] + szv * b.krSumRight[w];
      const u64 cLB = hpl + static_cast<u64>(b.sz[w]) * krLa;
      const u64 cRB = hpr + static_cast<u64>(b.sz[w]) * krRa;

      u64 best = cLA;
      auto kind = PathKind::LeftA;
      if (cRA < best) { best = cRA; kind = PathKind::RightA; }
      if (cLB < best) { best = cLB; kind = PathKind::LeftB; }
      if (cRB < best) { best = cRB; kind = PathKind::RightB; }

      costRow[w] = best;
      hplRow[w] = hpl;
      hprRow[w] = hpr;
      s.pick[static_cast<usize>(v - 1) * n2 + (w - 1)] = static_cast<u8>(kind);
    }
    rootCost = costRow[n2];

    if (const u32 p = a.parent[v]; p != 0) {
      auto &acc = accs[p];
      if (acc.sumAll.empty()) acc.sumAll.assign(n2 + 1, 0);
      for (usize w = 1; w <= n2; ++w) acc.sumAll[w] += costRow[w];
      if (v == a.children[p].front()) {
        acc.c1Cost = costRow;
        acc.c1Hl = hlRow;
      }
    }
    std::swap(prevCost, costRow);
    std::swap(prevHr, hrRow);
  }
  s.cost = rootCost;
  return s;
}

u64 run(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy, const TedCosts &costs,
        bool reuseBlocks, RunCounters *counters, u64 cutoff) {
  if (a.n == 0) return std::min(static_cast<u64>(b.n) * costs.ins,
                                cutoff ? cutoff : ~u64{0});
  if (b.n == 0) return std::min(static_cast<u64>(a.n) * costs.del,
                                cutoff ? cutoff : ~u64{0});

  const usize tdStride = b.n + 1;
  std::vector<u64> td((a.n + 1) * (b.n + 1), 0);
  std::vector<u64> fd((a.n + 2) * (b.n + 2), 0);

  // Solved subtree-pair rectangles by content; repeats replay instead of
  // recomputing. Subtrees sharing a fingerprint are disjoint
  // (nesting would change the size), so rectangle copies never alias.
  std::unordered_map<BlockKey, std::pair<u32, u32>, BlockKeyHash> blocks;
  const auto blockKeyOf = [&](u32 v, u32 w) {
    return BlockKey{a.fp[v], b.fp[w], a.sz[v], b.sz[w]};
  };

  // Two-phase frames: phase 0 queues the subtree pairs hanging off the
  // chosen path, phase 1 (after they resolved) runs the path kernel.
  struct Frame {
    u32 v, w;
    u8 phase;
  };
  std::vector<Frame> stack;
  stack.push_back({static_cast<u32>(a.n), static_cast<u32>(b.n), 0});

  while (!stack.empty()) {
    const Frame f = stack.back();
    const u32 v = f.v, w = f.w;
    const PathKind kind = strategy.at(v, w);

    if (f.phase == 0) {
      if (reuseBlocks) {
        const auto it = blocks.find(blockKeyOf(v, w));
        if (it != blocks.end()) {
          const auto [v0, w0] = it->second;
          const u32 dlv = a.left.lml[v], dlw = b.left.lml[w];
          const u32 slv = a.left.lml[v0], slw = b.left.lml[w0];
          const usize cols = w - dlw + 1;
          for (u32 r = 0; r <= v - dlv; ++r) {
            const u64 *src = &td[static_cast<usize>(slv + r) * tdStride + slw];
            std::copy(src, src + cols, &td[static_cast<usize>(dlv + r) * tdStride + dlw]);
          }
          if (counters) ++counters->blockHits;
          stack.pop_back();
          continue;
        }
      }
      stack.back().phase = 1;
      switch (kind) {
      case PathKind::LeftA:
        for (u32 u = v; !a.children[u].empty(); u = a.children[u].front())
          for (usize c = 1; c < a.children[u].size(); ++c) stack.push_back({a.children[u][c], w, 0});
        break;
      case PathKind::RightA:
        for (u32 u = v; !a.children[u].empty(); u = a.children[u].back())
          for (usize c = 0; c + 1 < a.children[u].size(); ++c)
            stack.push_back({a.children[u][c], w, 0});
        break;
      case PathKind::LeftB:
        for (u32 u = w; !b.children[u].empty(); u = b.children[u].front())
          for (usize c = 1; c < b.children[u].size(); ++c) stack.push_back({v, b.children[u][c], 0});
        break;
      case PathKind::RightB:
        for (u32 u = w; !b.children[u].empty(); u = b.children[u].back())
          for (usize c = 0; c + 1 < b.children[u].size(); ++c)
            stack.push_back({v, b.children[u][c], 0});
        break;
      }
      continue;
    }

    stack.pop_back();
    u64 cells = 0;
    bool abandoned = false;
    switch (kind) {
    case PathKind::LeftA:
      cells = runKernelPairs(a.left, b.left, {v}, localKeyroots(b.left, w), costs, td, tdStride,
                             fd, a.n, b.n, cutoff, &abandoned);
      break;
    case PathKind::RightA:
      cells = runKernelPairs(a.right, b.right, {a.canonToRight[v]},
                             localKeyroots(b.right, b.canonToRight[w]), costs, td, tdStride, fd,
                             a.n, b.n, cutoff, &abandoned);
      break;
    case PathKind::LeftB:
      cells = runKernelPairs(a.left, b.left, localKeyroots(a.left, v), {w}, costs, td, tdStride,
                             fd, a.n, b.n, cutoff, &abandoned);
      break;
    case PathKind::RightB:
      cells = runKernelPairs(a.right, b.right, localKeyroots(a.right, a.canonToRight[v]),
                             {b.canonToRight[w]}, costs, td, tdStride, fd, a.n, b.n, cutoff,
                             &abandoned);
      break;
    }
    if (counters) {
      ++counters->kernels[static_cast<usize>(kind)];
      counters->subproblems[static_cast<usize>(kind)] += cells;
    }
    // The whole-tree span only exists in the root pair's own kernel, so an
    // abandon here is the last kernel of the run anyway.
    if (abandoned) return cutoff;
    if (reuseBlocks) blocks.emplace(blockKeyOf(v, w), std::make_pair(v, w));
  }
  const u64 exact = td[static_cast<usize>(a.n) * tdStride + b.n];
  return cutoff ? std::min(exact, cutoff) : exact;
}

} // namespace sv::tree::apted
