// Exponential brute-force TED for the tree tests: a direct implementation
// of the forest-distance recurrence (no keyroot sharing) under arbitrary
// TedCosts. Ground truth for trees of up to ~8 nodes.
#pragma once

#include <map>

#include "tree/ted.hpp"

namespace sv::tree::oracle {

/// A forest is an ordered list of subtree roots of one tree.
using Forest = std::vector<NodeId>;

struct BruteForce {
  const Tree &a;
  const Tree &b;
  TedCosts costs;
  std::map<std::pair<Forest, Forest>, u64> memo;

  static Forest children(const Tree &t, NodeId r) {
    Forest out;
    for (NodeId c = t.node(r).firstChild; c != kNoNode; c = t.node(c).nextSibling)
      out.push_back(c);
    return out;
  }

  u64 forestSize(const Tree &t, const Forest &f) {
    u64 n = 0;
    for (const NodeId r : f) {
      n += 1;
      n += forestSize(t, children(t, r));
    }
    return n;
  }

  /// Classic recurrence on (forest, forest): operate on the *rightmost*
  /// root of either forest.
  u64 dist(const Forest &fa, const Forest &fb) {
    if (fa.empty() && fb.empty()) return 0;
    const auto key = std::make_pair(fa, fb);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    u64 best;
    if (fa.empty()) {
      // insert everything remaining in fb
      best = forestSize(b, fb) * costs.ins;
    } else if (fb.empty()) {
      best = forestSize(a, fa) * costs.del;
    } else {
      const NodeId ra = fa.back();
      const NodeId rb = fb.back();
      // delete ra: its children join the forest.
      const Forest ca = children(a, ra), cb = children(b, rb);
      Forest faDel(fa.begin(), fa.end() - 1);
      faDel.insert(faDel.end(), ca.begin(), ca.end());
      best = dist(faDel, fb) + costs.del;
      // insert rb
      Forest fbIns(fb.begin(), fb.end() - 1);
      fbIns.insert(fbIns.end(), cb.begin(), cb.end());
      best = std::min(best, dist(fa, fbIns) + costs.ins);
      // match ra with rb: subtree-vs-subtree plus remainder-vs-remainder.
      // Labels compare as text, not LabelTable ids, so a label-table fault
      // cannot hide from this oracle.
      Forest faRest(fa.begin(), fa.end() - 1);
      Forest fbRest(fb.begin(), fb.end() - 1);
      const u64 rename = a.node(ra).label == b.node(rb).label ? 0 : costs.rename;
      best = std::min(best, dist(faRest, fbRest) + dist(ca, cb) + rename);
    }
    memo.emplace(key, best);
    return best;
  }
};

inline u64 bruteTed(const Tree &a, const Tree &b, const TedCosts &costs = {}) {
  BruteForce bf{a, b, costs, {}};
  return bf.dist({0}, {0});
}

} // namespace sv::tree::oracle
