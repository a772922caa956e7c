// Admissible TED lower bounds (the filter half of the metric-space query
// layer). A BoundSignature is a cheap, order-insensitive summary of one
// tree — node count, label multiset, binary-branch profile — from which
// three lower bounds on the exact edit distance are computable in
// O(|sig1| + |sig2|), without touching either tree again:
//
//  * size bound: any edit script must delete at least n1-n2 nodes (or
//    insert n2-n1), so d >= |n1-n2| * (the corresponding unit cost).
//  * label-histogram bound: a script whose mapping matches k node pairs
//    pays (n1-k)*del + (n2-k)*ins, plus rename for every matched pair
//    whose labels differ — and at most c = |hist1 ∩ hist2| matched pairs
//    can be rename-free. Minimising over k (the cost is piecewise linear
//    in k, so only the breakpoints k ∈ {0, min(c, min(n1,n2)), min(n1,n2)}
//    matter) gives an admissible bound that sees label changes the size
//    bound is blind to.
//  * binary-branch bound [Yang, Kalnis & Tung 2005]: the multiset of
//    (label, first-child label, next-sibling label) triples changes by at
//    most 5 (L1) per unit edit operation — a rename rewrites the node's
//    own triple and the <=2 triples naming it; a delete/insert also
//    splices the sibling chain. Hence d >= ceil(L1/5) * min(del,ins,ren).
//    This bound sees structural rearrangements the histogram misses.
//
// All three are admissible by construction (each underestimates the cost
// of the *optimal* script), so max() of them is too — the fuzz oracle
// `lb` and tests/tree/tedbounds_test.cpp assert lb <= exact on generated
// and corpus trees. Labels enter as their LabelTable fnv1a hashes, never
// as schedule-dependent ids. The codebase DB derives signatures on load,
// so a file cannot forge a bound. A hash collision can only merge two
// histogram buckets, which lowers the bound — admissibility survives.
#pragma once

#include "tree/ted.hpp"

namespace sv::tree {

/// Order-insensitive tree summary for O(1)-per-pair lower bounds. Both
/// multisets are sorted by hash so intersection/L1 walks are linear merges.
struct BoundSignature {
  u64 n = 0;                                        ///< node count
  std::vector<std::pair<u64, u32>> labelHist;       ///< (label fnv1a, count), sorted
  std::vector<std::pair<u64, u32>> branchProfile;   ///< (branch-triple hash, count), sorted

  bool operator==(const BoundSignature &) const = default;
};

/// Build the signature in one pass over the nodes plus two sorts.
[[nodiscard]] BoundSignature boundSignature(const Tree &t);

/// |n1-n2| * (del or ins, whichever operation the imbalance forces).
[[nodiscard]] u64 sizeLowerBound(u64 n1, u64 n2, const TedCosts &costs);

/// The matched-pairs minimisation over the label-multiset intersection.
[[nodiscard]] u64 histogramLowerBound(const BoundSignature &a, const BoundSignature &b,
                                      const TedCosts &costs);

/// ceil(L1(branch profiles)/5) * min unit cost.
[[nodiscard]] u64 profileLowerBound(const BoundSignature &a, const BoundSignature &b,
                                    const TedCosts &costs);

/// max of the three bounds above; `tedLowerBound(a, b, c) <= ted(ta, tb, c)`
/// for the trees the signatures were built from.
[[nodiscard]] u64 tedLowerBound(const BoundSignature &a, const BoundSignature &b,
                                const TedCosts &costs);

} // namespace sv::tree
