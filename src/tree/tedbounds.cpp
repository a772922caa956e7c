#include "tree/tedbounds.hpp"

#include <algorithm>

#include "support/hash.hpp"

namespace sv::tree {

namespace {

/// Missing first-child / next-sibling slot in a binary-branch triple. A
/// real label hashing to this merely merges two profile buckets, which can
/// only lower the L1 — the bound stays admissible.
constexpr u64 kEps = 0;

/// The multiset `keys` as (key, count) pairs, sorted by key.
std::vector<std::pair<u64, u32>> sortedCounts(std::vector<u64> keys) {
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<u64, u32>> out;
  for (const u64 k : keys) {
    if (out.empty() || out.back().first != k) out.emplace_back(k, 0);
    ++out.back().second;
  }
  return out;
}

/// One merge walk over two sorted count vectors: the multiset intersection
/// size and the L1 distance (they share the pass, callers pick one).
struct MultisetDiff {
  u64 common = 0; ///< sum of min(countA, countB) over shared keys
  u64 l1 = 0;     ///< sum of |countA - countB| plus all unshared counts
};

MultisetDiff diffCounts(const std::vector<std::pair<u64, u32>> &a,
                        const std::vector<std::pair<u64, u32>> &b) {
  MultisetDiff d;
  usize i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      d.l1 += a[i++].second;
    } else if (b[j].first < a[i].first) {
      d.l1 += b[j++].second;
    } else {
      const u32 ca = a[i++].second;
      const u32 cb = b[j++].second;
      d.common += std::min(ca, cb);
      d.l1 += ca > cb ? ca - cb : cb - ca;
    }
  }
  for (; i < a.size(); ++i) d.l1 += a[i].second;
  for (; j < b.size(); ++j) d.l1 += b[j].second;
  return d;
}

} // namespace

BoundSignature boundSignature(const Tree &t) {
  BoundSignature s;
  s.n = t.size();
  if (s.n == 0) return s;

  const auto &table = LabelTable::global();
  const auto labelHash = [&](NodeId id) {
    return id == kNoNode ? kEps : table.hash(t.node(id).labelId);
  };
  std::vector<u64> labels(t.size()), branches(t.size());
  for (NodeId id = 0; id < t.size(); ++id) {
    const Node &node = t.node(id);
    labels[id] = labelHash(id);
    // Binary-branch triple (label, first child, next sibling) — the node's
    // neighbourhood in the left-child/right-sibling binary transform.
    branches[id] = hashCombine(hashCombine(labels[id], labelHash(node.firstChild)),
                               labelHash(node.nextSibling));
  }
  s.labelHist = sortedCounts(std::move(labels));
  s.branchProfile = sortedCounts(std::move(branches));
  return s;
}

u64 sizeLowerBound(u64 n1, u64 n2, const TedCosts &costs) {
  return n1 >= n2 ? (n1 - n2) * costs.del : (n2 - n1) * costs.ins;
}

u64 histogramLowerBound(const BoundSignature &a, const BoundSignature &b, const TedCosts &costs) {
  // A script whose mapping matches k pairs costs at least
  //   f(k) = (n1-k)*del + (n2-k)*ins + max(0, k-c)*rename
  // with c the label-multiset intersection: at most c matched pairs can be
  // rename-free. f is piecewise linear and decreasing up to k = min(c,
  // nmin), so its minimum over k in [0, nmin] is at one of the two
  // breakpoints.
  const u64 c = diffCounts(a.labelHist, b.labelHist).common;
  const u64 nmin = std::min(a.n, b.n);
  const auto f = [&](u64 k) {
    return (a.n - k) * costs.del + (b.n - k) * costs.ins +
           (k > c ? (k - c) * costs.rename : 0);
  };
  return std::min(f(std::min(c, nmin)), f(nmin));
}

u64 profileLowerBound(const BoundSignature &a, const BoundSignature &b, const TedCosts &costs) {
  // One edit operation moves at most 5 binary-branch triples (its own, the
  // one binary-transform parent naming it, and the spliced sibling chain's
  // boundary), so any script has length >= ceil(L1/5).
  const u64 l1 = diffCounts(a.branchProfile, b.branchProfile).l1;
  const u64 cmin = std::min({costs.del, costs.ins, costs.rename});
  return (l1 + 4) / 5 * cmin;
}

u64 tedLowerBound(const BoundSignature &a, const BoundSignature &b, const TedCosts &costs) {
  return std::max({sizeLowerBound(a.n, b.n, costs), histogramLowerBound(a, b, costs),
                   profileLowerBound(a, b, costs)});
}

} // namespace sv::tree
