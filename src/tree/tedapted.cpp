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
#include <memory>
#include <span>
#include <unordered_map>

#include "support/hash.hpp"
#include "tree/tedseam.hpp"

namespace sv::tree::apted {

namespace {

/// One orientation of `t` from its post-order walk `order` (mirrored or
/// not); `pos` maps node ids to 1-based positions in this walk, `canonPos`
/// in the left one.
OrientIndex makeOrient(const Tree &t, const std::vector<NodeId> &order, bool mirrored,
                       const std::vector<u32> &pos, const std::vector<u32> &canonPos) {
  OrientIndex v;
  const usize n = t.size();
  v.label.assign(n + 1, 0);
  v.lml.assign(n + 1, 0);
  v.toCanon.assign(n + 1, 0);
  v.isPathChild.assign(n + 1, 0);
  for (usize i = 1; i <= n; ++i) {
    const NodeId id = order[i - 1];
    const Node &node = t.node(id);
    v.label[i] = node.labelId;
    v.toCanon[i] = canonPos[id];
    const NodeId first = mirrored ? node.lastChild : node.firstChild;
    if (first == kNoNode) {
      v.lml[i] = static_cast<u32>(i);
    } else {
      v.lml[i] = v.lml[pos[first]];
      v.isPathChild[pos[first]] = 1;
    }
  }
  return v;
}

/// Local keyroots of the subtree rooted at `root` (an orientation
/// position), ascending, into `out`: the root plus every proper descendant
/// that is not on its parent's path in this orientation.
std::span<const u32> localKeyroots(const OrientIndex &v, u32 root, std::vector<u32> &out) {
  out.clear();
  for (u32 u = v.lml[root]; u < root; ++u)
    if (!v.isPathChild[u]) out.push_back(u);
  out.push_back(root);
  return out;
}

/// The facts of one keyroot's forest prefixes where they index the columns
/// of an FD block, computed once per keyroot: column y (1..cols-1) stands
/// for node d = first + y - 1 of `t`.
template <class Cell> struct Columns {
  const OrientIndex *t = nullptr;
  usize tdMul = 0;          ///< TD offset of canonical id c: c * tdMul
  bool canonical = false;   ///< toCanon is the identity and tdMul is 1
  Cell step = 0;            ///< cost of consuming one column node unmatched
  u32 keyroot = 0;          ///< whose facts these are; 0 = none yet
  u32 first = 0;            ///< the keyroot's path leaf
  usize cols = 0;           ///< forest prefixes 0..cols-1
  usize nPath = 0;          ///< columns on the keyroot's path
  u32 *jumpCol = nullptr;   ///< [y] FD column of the prefix before subtree(d)
  u32 *tdOff = nullptr;     ///< [y] TD offset of d
  u32 *pathY = nullptr;     ///< [p] the on-path columns
  u32 *pathLabel = nullptr; ///< [p] their labels
  Cell *bias = nullptr;     ///< [y] (cols - 1 - y) * step, see fillBlock

  /// Compute the facts of keyroot `kr`, unless they are the loaded ones.
  void load(u32 kr) {
    if (keyroot == kr) return;
    keyroot = kr;
    first = t->lml[kr];
    cols = kr - first + 2;
    nPath = 0;
    bias[0] = static_cast<Cell>(cols - 1) * step;
    for (usize y = 1; y < cols; ++y) {
      const u32 d = first + static_cast<u32>(y) - 1;
      jumpCol[y] = t->lml[d] - first;
      tdOff[y] = static_cast<u32>(t->toCanon[d] * tdMul);
      bias[y] = bias[y - 1] - step;
      if (t->lml[d] == first) {
        pathY[nPath] = static_cast<u32>(y);
        pathLabel[nPath++] = t->label[d];
      }
    }
  }
};

/// Row pass 1, the cells of row x that do not depend on each other:
/// cur[y] = min(row step, jump over the complete subtrees rooted at the
/// row's and the column's node), plus the chain bias. The rows
/// never overlap (`jump` and `prev` are earlier FD rows, `tdRow` lies in
/// TD), which lets the loop vectorise. `tdOff == nullptr` reads TD
/// contiguously: `tdRow[y]`.
template <class Cell>
[[gnu::always_inline]] inline void relaxRow(Cell *__restrict cur, const Cell *__restrict prev,
                                            const Cell *__restrict jump,
                                            const Cell *__restrict tdRow,
                                            const u32 *__restrict jumpCol,
                                            const u32 *__restrict tdOff,
                                            const Cell *__restrict bias, usize cols, Cell step) {
  if (tdOff)
    for (usize y = 1; y < cols; ++y)
      cur[y] = std::min<Cell>(prev[y] + step, jump[jumpCol[y]] + tdRow[tdOff[y]]) + bias[y];
  else
    for (usize y = 1; y < cols; ++y)
      cur[y] = std::min<Cell>(prev[y] + step, jump[jumpCol[y]] + tdRow[y]) + bias[y];
}

/// Whole-tree early abandon (see kernelBody): A's and B's sizes, the
/// costs of their unmatched nodes, and the cutoff.
struct Abandon {
  usize fullA = 0, fullB = 0;
  u64 del = 0, ins = 0;
  u64 cutoff = 0;
};

/// Fill one keyroot pair's FD block, the Zhang–Shasha forest DP: rows are
/// the forest prefixes of keyroot `kr` in orientation R (a row node's TD
/// offset is its canonical id times `rowMul`), columns those of `c`.
/// Returns the rows filled when `abandon` stops it early, else 0.
///
/// Per row x the path test runs once, then the row takes three passes:
///  1. every cell: min(row step, jump), `relaxRow`. An on-path row first
///     zeroes its on-path TD cells, which are not known yet, so the jump
///     reads a defined value there; step 1b overwrites those cells;
///  1b. on-path rows only, on-path columns only: min(row step, diagonal
///     plus rename);
///  2. the insert chain, the row's one sequential dependency. With
///     bias[y] = (cols - 1 - y) * colStep added in pass 1,
///       FD(x, y) = min_{k <= y} (t[k] + (y - k) * colStep)
///                = min_{k <= y} (t[k] + bias[k]) - bias[y],
///     so the chain carries only a running minimum;
///  3. on-path rows only: write the on-path cells back to TD.
template <class Cell>
[[gnu::always_inline]] inline usize fillBlock(const OrientIndex &R, u32 kr, usize rowMul,
                                              const Columns<Cell> &c, Cell *td, Cell *fd,
                                              Cell rowStep, Cell rename, const Abandon *abandon) {
  const u32 lr = R.lml[kr];
  const usize rows = kr - lr + 2;
  const usize cols = c.cols;
  const Cell *const bias = c.bias;
  for (usize y = 0; y < cols; ++y) fd[y] = bias[0] - bias[y]; // y * step, no chain

  for (usize x = 1; x < rows; ++x) {
    const u32 d = lr + static_cast<u32>(x) - 1;
    const bool rowOnPath = R.lml[d] == lr;
    const Cell *const prev = fd + (x - 1) * cols;
    Cell *const cur = fd + x * cols;
    Cell *const tdRow = td + R.toCanon[d] * rowMul;
    if (rowOnPath)
      for (usize p = 0; p < c.nPath; ++p) tdRow[c.tdOff[c.pathY[p]]] = 0;
    const Cell *const jump = fd + static_cast<usize>(R.lml[d] - lr) * cols;
    if (c.canonical)
      relaxRow<Cell>(cur, prev, jump, tdRow + c.first - 1, c.jumpCol, nullptr, bias, cols,
                     rowStep);
    else
      relaxRow<Cell>(cur, prev, jump, tdRow, c.jumpCol, c.tdOff, bias, cols, rowStep);
    if (rowOnPath) {
      const u32 label = R.label[d];
      for (usize p = 0; p < c.nPath; ++p) {
        const usize y = c.pathY[p];
        const Cell ren = label == c.pathLabel[p] ? 0 : rename;
        cur[y] = std::min<Cell>(prev[y] + rowStep, prev[y - 1] + ren) + bias[y];
      }
    }
    cur[0] = prev[0] + rowStep;
    Cell run = cur[0] + bias[0];
    for (usize y = 1; y < cols; ++y) {
      run = std::min(run, cur[y]);
      cur[y] = run - bias[y];
    }
    if (rowOnPath)
      for (usize p = 0; p < c.nPath; ++p) tdRow[c.tdOff[c.pathY[p]]] = cur[c.pathY[p]];

    if (abandon) {
      const u64 remA = static_cast<u64>(abandon->fullA - x);
      u64 best = ~u64{0};
      for (usize y = 0; y < cols; ++y) {
        const u64 remB = static_cast<u64>(abandon->fullB - y);
        const u64 rem = remA >= remB ? (remA - remB) * abandon->del : (remB - remA) * abandon->ins;
        best = std::min(best, cur[y] + rem);
      }
      if (best >= abandon->cutoff) return x;
    }
  }
  return 0;
}

/// One single-path kernel call: the keyroot lists of both orientations
/// (one of them is the decomposed path's lone keyroot), the run's shared
/// TD table ([canonical a][canonical b], `tdStride` = n2 + 1) and its
/// scratch.
template <class Cell> struct Kernel {
  const OrientIndex *A = nullptr, *B = nullptr;
  std::span<const u32> aKrs, bKrs;
  Cell del = 0, ins = 0, rename = 0;
  Cell *td = nullptr;
  usize tdStride = 0;
  Cell *fd = nullptr; ///< FD scratch: (n1 + 1) * (n2 + 1) cells, never zero-filled
  Columns<Cell> *colsA = nullptr, *colsB = nullptr; ///< column facts, per side
  Abandon abandon;    ///< abandon.cutoff > 0: the whole-tree block may abandon
};

/// The Zhang–Shasha forest DP over every (A keyroot, B keyroot) pair of the
/// kernel's lists, in one orientation: the recurrence of ted.cpp's
/// reference, reorganised so nothing in the cell loop branches (see
/// fillBlock). TD reads and writes go through the canonical maps so left-
/// and right-orientation kernels share one table. Returns the DP cell
/// count.
///
/// Each block runs with its longer side as the columns: the forest
/// distance is symmetric when the trees swap along with the delete and
/// insert costs, so a block computes the same cells, and writes the same TD
/// values, either way round — but a row of a handful of cells pays the
/// per-row overhead for no vector work. Column facts are computed once per
/// keyroot and side; `run` always passes one singleton list, so the lone
/// keyroot's facts serve the whole call. Zhang–Shasha's dependency order
/// holds with either keyroot loop outermost.
///
/// With `abandon.cutoff > 0`, the iteration spanning both *whole* trees
/// (only ever the root pair's final kernel) early-abandons: after filling
/// prefix row x, any complete edit mapping splits into a mapping between
/// the post-order prefixes A[1..x] / B[1..y] (costing >= FD(x, y), the true
/// prefix forest distance in that iteration) and a mapping between the
/// remainders (costing >= the size bound on them) — so
///   d(T1, T2) >= min_y ( FD(x, y) + sizeLB(fullA - x, fullB - y) ),
/// and once that reaches the cutoff no completion can beat it. Admissible:
/// never fires when the exact distance is below the cutoff. Only the
/// whole-tree span qualifies because inner iterations' FD rows are forest
/// distances of partial keyroot forests, not tree prefixes. That block
/// always keeps A as its rows, so it abandons after the same row as the
/// reference.
template <class Cell>
[[gnu::always_inline]] inline u64 kernelBody(const Kernel<Cell> &k, bool *abandoned) {
  u64 cells = 0;
  for (const u32 j : k.bKrs) {
    const usize colsB = j - k.B->lml[j] + 1;
    for (const u32 i : k.aKrs) {
      const usize rowsA = i - k.A->lml[i] + 1;
      const bool wholeSpan =
          k.abandon.cutoff > 0 && rowsA == k.abandon.fullA && colsB == k.abandon.fullB;
      if (!wholeSpan && rowsA > colsB) {
        k.colsA->load(i);
        (void)fillBlock(*k.B, j, 1, *k.colsA, k.td, k.fd, k.ins, k.rename, nullptr);
      } else {
        k.colsB->load(j);
        const usize stop = fillBlock(*k.A, i, k.tdStride, *k.colsB, k.td, k.fd, k.del, k.rename,
                                     wholeSpan ? &k.abandon : nullptr);
        if (stop) {
          *abandoned = true;
          return cells + stop * colsB;
        }
      }
      cells += rowsA * colsB;
    }
  }
  return cells;
}

// The kernel at each cell width, twice: the production entry, which the
// CPU resolves at load time to an AVX2 or a baseline-ISA clone, and the
// baseline build on its own for the test seam. Compilers and targets
// without function multiversioning build the baseline only, and so do
// ThreadSanitizer builds: the loader runs the clone resolver before the
// TSan runtime is up, which crashes the process at startup.
#if defined(__SANITIZE_THREAD__)
#define SV_TED_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SV_TED_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__ELF__) && !defined(SV_TED_TSAN) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SV_TED_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef SV_TED_KERNEL_CLONES
#define SV_TED_KERNEL_CLONES
#endif

SV_TED_KERNEL_CLONES u64 kernelNative(const Kernel<u32> &k, bool *abandoned) {
  return kernelBody(k, abandoned);
}
SV_TED_KERNEL_CLONES u64 kernelNative(const Kernel<u64> &k, bool *abandoned) {
  return kernelBody(k, abandoned);
}
u64 kernelBaseline(const Kernel<u32> &k, bool *abandoned) { return kernelBody(k, abandoned); }
u64 kernelBaseline(const Kernel<u64> &k, bool *abandoned) { return kernelBody(k, abandoned); }

thread_local seam::Isa tKernelIsa = seam::Isa::Native;

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

TreeIndex buildIndex(const Tree &t) {
  TreeIndex ix;
  ix.n = t.size();
  if (ix.n == 0) return ix;

  const auto positions = [&](const std::vector<NodeId> &order) {
    std::vector<u32> pos(ix.n, 0);
    for (usize i = 0; i < ix.n; ++i) pos[order[i]] = static_cast<u32>(i + 1);
    return pos;
  };
  const std::vector<NodeId> L = t.postorder(), R = t.postorder(/*mirrored=*/true);
  const std::vector<u32> lpos = positions(L), rpos = positions(R);
  ix.left = makeOrient(t, L, false, lpos, lpos);
  ix.right = makeOrient(t, R, true, rpos, lpos);
  ix.canonToRight.assign(ix.n + 1, 0);
  for (usize r = 1; r <= ix.n; ++r) ix.canonToRight[ix.right.toCanon[r]] = static_cast<u32>(r);

  ix.parent.assign(ix.n + 1, 0);
  ix.childStart.assign(ix.n + 2, 0);
  ix.childIds.reserve(ix.n - 1);
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

  const std::vector<u64> hashes = t.subtreeHashes();
  for (u32 i = 1; i <= ix.n; ++i) {
    const NodeId id = L[i - 1];
    const Node &node = t.node(id);
    if (node.parent != kNoParent) ix.parent[i] = lpos[node.parent];
    ix.childStart[i] = static_cast<u32>(ix.childIds.size());
    for (NodeId c = node.firstChild; c != kNoNode; c = t.node(c).nextSibling)
      ix.childIds.push_back(lpos[c]);
    ix.childStart[i + 1] = static_cast<u32>(ix.childIds.size());
    const auto ch = ix.children(i);

    // Post-order: every child's aggregate is final here. The keyroot sums
    // follow L(u) = span(u) + sum_c L(c) - span(pathChild): the path
    // child's own relevant forest merges into u's extended span, every
    // other child keeps its keyroots.
    u32 size = 1;
    u64 sumL = 0, sumR = 0;
    for (const u32 c : ch) {
      size += ix.sz[c];
      sumL += ix.krSumLeft[c];
      sumR += ix.krSumRight[c];
    }
    ix.sz[i] = size;
    ix.fp[i] = hashes[id];
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
  // run() will hold at least u32 TD and FD tables next to this matrix.
  checkPairDp(a.n, b.n, 2 * sizeof(u32) + sizeof(u8));
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
    if (a.children(v).empty()) {
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
      const auto chB = b.children(w);
      u64 hpl = 0, hpr = 0;
      if (!chB.empty()) {
        u64 sum = 0;
        for (const u32 c : chB) sum += costRow[c];
        hpl = hplRow[chB.front()] + (sum - costRow[chB.front()]);
        hpr = hprRow[chB.back()] + (sum - costRow[chB.back()]);
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
      if (v == a.children(p).front()) {
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

namespace {

template <class Cell>
u64 runWith(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy,
            const TedCosts &costs, bool reuseBlocks, RunCounters *counters, u64 cutoff,
            std::vector<u64> *tdOut) {
  checkPairDp(a.n, b.n, 2 * sizeof(Cell) + sizeof(u8)); // TD, FD and the strategy matrix
  // One block per run: TD, FD and both sides' column bias. No zero fill:
  // the kernel writes every cell before it reads it. TD offsets are u32:
  // the DP ceiling keeps (n1 + 1) * (n2 + 1) below 2^32.
  static_assert(kMaxPairDpBytes / (2 * sizeof(u32) + 1) < (u64{1} << 32));
  const usize tdStride = b.n + 1;
  const usize tdCells = (a.n + 1) * tdStride;
  const auto block = std::make_unique_for_overwrite<Cell[]>(2 * tdCells + a.n + b.n + 2);
  Cell *const td = block.get();
  std::vector<u32> facts(4 * (a.n + b.n + 2));
  std::vector<u32> keyroots;

  const auto columns = [&](usize n, usize tdMul, Cell step, u32 *f, Cell *bias) {
    Columns<Cell> c;
    c.tdMul = tdMul;
    c.step = step;
    c.jumpCol = f;
    c.tdOff = f + (n + 1);
    c.pathY = f + 2 * (n + 1);
    c.pathLabel = f + 3 * (n + 1);
    c.bias = bias;
    return c;
  };
  // A's nodes as columns cost a delete each, B's an insert.
  Columns<Cell> colsA = columns(a.n, tdStride, static_cast<Cell>(costs.del), facts.data(),
                                td + 2 * tdCells);
  Columns<Cell> colsB = columns(b.n, 1, static_cast<Cell>(costs.ins),
                                facts.data() + 4 * (a.n + 1), td + 2 * tdCells + a.n + 1);

  Kernel<Cell> k;
  k.del = static_cast<Cell>(costs.del);
  k.ins = static_cast<Cell>(costs.ins);
  k.rename = static_cast<Cell>(costs.rename);
  k.td = td;
  k.tdStride = tdStride;
  k.fd = td + tdCells;
  k.colsA = &colsA;
  k.colsB = &colsB;
  k.abandon = {a.n, b.n, costs.del, costs.ins, cutoff};
  const bool baseline = tKernelIsa == seam::Isa::Baseline;

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
  // Queue the subtree pairs hanging off root's left or right path: every
  // child of a path node except the path child itself.
  const auto queueHanging = [&stack](const TreeIndex &t, u32 root, bool leftPath, auto frame) {
    for (auto ch = t.children(root); !ch.empty();) {
      const u32 pathChild = leftPath ? ch.front() : ch.back();
      for (const u32 c : ch)
        if (c != pathChild) stack.push_back(frame(c));
      ch = t.children(pathChild);
    }
  };

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
            const Cell *src = &td[static_cast<usize>(slv + r) * tdStride + slw];
            std::copy(src, src + cols, &td[static_cast<usize>(dlv + r) * tdStride + dlw]);
          }
          if (counters) ++counters->blockHits;
          stack.pop_back();
          continue;
        }
      }
      stack.back().phase = 1;
      const bool inA = kind == PathKind::LeftA || kind == PathKind::RightA;
      const bool leftPath = kind == PathKind::LeftA || kind == PathKind::LeftB;
      if (inA)
        queueHanging(a, v, leftPath, [w](u32 c) { return Frame{c, w, 0}; });
      else
        queueHanging(b, w, leftPath, [v](u32 c) { return Frame{v, c, 0}; });
      continue;
    }

    stack.pop_back();
    // The path's own keyroot on its side; every local keyroot on the other.
    const bool right = kind == PathKind::RightA || kind == PathKind::RightB;
    const u32 va = right ? a.canonToRight[v] : v;
    const u32 wb = right ? b.canonToRight[w] : w;
    k.A = right ? &a.right : &a.left;
    k.B = right ? &b.right : &b.left;
    colsA.t = k.A;
    colsB.t = k.B;
    colsA.keyroot = colsB.keyroot = 0;
    colsB.canonical = !right; // colsA's TD offsets always scale by the stride
    if (kind == PathKind::LeftA || kind == PathKind::RightA) {
      k.aKrs = {&va, 1};
      k.bKrs = localKeyroots(*k.B, wb, keyroots);
    } else {
      k.aKrs = localKeyroots(*k.A, va, keyroots);
      k.bKrs = {&wb, 1};
    }
    bool abandoned = false;
    const u64 cells = baseline ? kernelBaseline(k, &abandoned) : kernelNative(k, &abandoned);
    if (counters) {
      ++counters->kernels[static_cast<usize>(kind)];
      counters->subproblems[static_cast<usize>(kind)] += cells;
    }
    // The whole-tree span only exists in the root pair's own kernel, so an
    // abandon here is the last kernel of the run anyway.
    if (abandoned) return cutoff;
    if (reuseBlocks) blocks.emplace(blockKeyOf(v, w), std::make_pair(v, w));
  }
  if (tdOut) tdOut->assign(td, td + tdCells);
  const u64 exact = td[static_cast<usize>(a.n) * tdStride + b.n];
  return cutoff ? std::min(exact, cutoff) : exact;
}

/// u32 cells hold every forest distance (<= (n1 + n2) * maxCost) and every
/// sum of two of them exactly when 2 * (n1 + n2) * maxCost fits in 32 bits.
bool narrowCells(usize n1, usize n2, const TedCosts &costs) {
  const u64 maxCost = std::max({costs.del, costs.ins, costs.rename});
  return maxCost == 0 || u64{n1} + n2 <= u64{~u32{0}} / (2 * maxCost);
}

/// runWith at the cell width narrowCells picks.
u64 runAtWidth(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy,
               const TedCosts &costs, bool reuseBlocks, RunCounters *counters, u64 cutoff,
               std::vector<u64> *tdOut) {
  if (narrowCells(a.n, b.n, costs))
    return runWith<u32>(a, b, strategy, costs, reuseBlocks, counters, cutoff, tdOut);
  return runWith<u64>(a, b, strategy, costs, reuseBlocks, counters, cutoff, tdOut);
}

} // namespace

u64 run(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy, const TedCosts &costs,
        bool reuseBlocks, RunCounters *counters, u64 cutoff) {
  if (a.n == 0) return std::min(static_cast<u64>(b.n) * costs.ins,
                                cutoff ? cutoff : ~u64{0});
  if (b.n == 0) return std::min(static_cast<u64>(a.n) * costs.del,
                                cutoff ? cutoff : ~u64{0});
  return runAtWidth(a, b, strategy, costs, reuseBlocks, counters, cutoff, nullptr);
}

namespace seam {

ScopedIsa::ScopedIsa(Isa isa) : saved_(tKernelIsa) { tKernelIsa = isa; }
ScopedIsa::~ScopedIsa() { tKernelIsa = saved_; }

usize cellBytes(usize n1, usize n2, const TedCosts &costs) {
  return narrowCells(n1, n2, costs) ? sizeof(u32) : sizeof(u64);
}

std::vector<u64> tdTable(const TreeIndex &a, const TreeIndex &b, const TedCosts &costs) {
  std::vector<u64> out;
  (void)runAtWidth(a, b, computeStrategy(a, b), costs, false, nullptr, 0, &out);
  // Row and column 0 are not node pairs; the run leaves them unset.
  std::fill_n(out.begin(), b.n + 1, 0);
  for (usize r = 1; r <= a.n; ++r) out[r * (b.n + 1)] = 0;
  return out;
}

} // namespace seam

} // namespace sv::tree::apted
