// Metric-space queries over divergence (the refine half of the
// filter-and-refine layer). The divergence distance of Eq. 6 under the
// default unit costs is a metric on codebases — TED is a metric on trees,
// role matching is symmetric, and unmatched units price identically in
// both directions — so similarity queries can be answered without paying
// the exact-TED price for every candidate:
//
//   filter:  order candidates by an admissible lower bound assembled from
//            the per-unit signatures each Codebase DB carries;
//   refine:  evaluate survivors with a budgeted cutoff — top-k keeps the
//            running k-th best as a shrinking budget, range queries use
//            the radius — so losing candidates abandon mid-DP.
//
// Every distance *reported* by a query is exact (pruning only discards
// candidates provably outside the result), which is why topKDivergence is
// byte-identical to brute-force exact ranking (tests/metrics/query_test.cpp
// and bench/query_bench.cpp gate on it).
//
// Filtering is bypassed (every candidate refined exactly) for the Source
// metric (no tree signatures) and the +coverage variant (signatures
// describe unmasked trees).
#pragma once

#include "metrics/metrics.hpp"

namespace sv::metrics {

/// How one bounded evaluation was resolved.
enum class FilterOutcome {
  Exact,          ///< completed: divergence is the exact diverge() result
  PrunedByBound,  ///< signature lower bound reached the cutoff; no DP ran
  PrunedByCutoff, ///< abandoned mid-refinement once the running total reached it
};

/// diverge() result with provenance. On a pruned outcome `distance` is
/// clamped to the cutoff (the true distance is >= it); the dmax
/// normalisers and unit counts are always exact (they only need sizes).
struct BoundedDivergence {
  Divergence divergence;
  FilterOutcome outcome = FilterOutcome::Exact;
};

/// One candidate pair of codebases, assembled once from the DBs' unit
/// signatures: the exact unmatched contribution, the dmax normalisers and
/// unit counts, and every matched unit pair with its admissible TED lower
/// bound. Every bounded evaluation in the query layer (and portMatrix)
/// starts from one; tree metrics without +coverage only. Borrows the units
/// of c1 and c2.
struct CandidateBounds {
  struct Pair {
    const db::UnitEntry *u1 = nullptr;
    const db::UnitEntry *u2 = nullptr;
    u64 lb = 0; ///< signature lower bound on this pair's TED
  };
  Metric metric = Metric::Tsem;
  Variant variant;
  /// Unmatched units' distance (exact); normalisers and unit counts complete.
  Divergence base;
  std::vector<Pair> pairs;   ///< matched pairs, in matchUnits order
  u64 lowerBound = 0;        ///< base.distance + every pair's lb
};

[[nodiscard]] CandidateBounds candidateBounds(const db::CodebaseDb &c1,
                                              const db::CodebaseDb &c2, Metric metric,
                                              Variant variant = {},
                                              const tree::TedCosts &costs = {},
                                              const MatchOptions &match = {});

/// Admissible lower bound on diverge(c1, c2, ...).distance from the DBs'
/// unit signatures: summed per-pair TED bounds plus unmatched unit sizes.
/// 0 (no filtering) for Source and the +coverage variant.
[[nodiscard]] u64 divergenceLowerBound(const db::CodebaseDb &c1, const db::CodebaseDb &c2,
                                       Metric metric, Variant variant = {},
                                       const tree::TedCosts &costs = {},
                                       const MatchOptions &match = {});

/// diverge() with a total-distance budget. cutoff == 0 computes exactly.
/// Otherwise a lower bound at the budget settles the evaluation with no
/// DP; else matched pairs are refined in descending-lower-bound order,
/// each unit TED runs with the remaining budget as its own TedOptions
/// cutoff (any cutoff in `ted` is overridden), and the whole evaluation
/// abandons as soon as the accumulated distance plus the remaining pairs'
/// bounds reaches the budget.
[[nodiscard]] BoundedDivergence divergeBounded(const db::CodebaseDb &c1,
                                               const db::CodebaseDb &c2, Metric metric,
                                               Variant variant, const tree::TedOptions &ted,
                                               const MatchOptions &match, u64 cutoff);

/// The same evaluation from prebuilt bounds.
[[nodiscard]] BoundedDivergence divergeBounded(const CandidateBounds &bounds,
                                               const tree::TedOptions &ted, u64 cutoff);

/// One query result; `index` points into the candidate corpus.
struct Neighbor {
  usize index = 0;
  u64 distance = 0;      ///< exact diverge().distance (never a bound)
  double normalised = 0; ///< distance / dmaxSym
};

/// Filter effectiveness of one query or matrix build.
struct QueryStats {
  usize candidates = 0;
  usize prunedByBound = 0;  ///< settled by the lower bound alone
  usize prunedByCutoff = 0; ///< abandoned mid-refinement
  usize exact = 0;          ///< refined to completion

  /// One resolved candidate: counts it and its outcome.
  void count(FilterOutcome outcome) {
    ++candidates;
    switch (outcome) {
    case FilterOutcome::Exact: ++exact; break;
    case FilterOutcome::PrunedByBound: ++prunedByBound; break;
    case FilterOutcome::PrunedByCutoff: ++prunedByCutoff; break;
    }
  }

  QueryStats &operator+=(const QueryStats &o) {
    candidates += o.candidates;
    prunedByBound += o.prunedByBound;
    prunedByCutoff += o.prunedByCutoff;
    exact += o.exact;
    return *this;
  }

  [[nodiscard]] double filterRate() const {
    const usize resolved = prunedByBound + prunedByCutoff + exact;
    return resolved == 0
               ? 0.0
               : static_cast<double>(prunedByBound + prunedByCutoff) / static_cast<double>(resolved);
  }
};

/// The k nearest corpus entries to `query` by divergence distance, ties by
/// index — byte-identical to sorting all exact distances. Candidates are
/// refined in lower-bound order by one `query-refine` parallelFor under a
/// shared cutoff that falls to (current k-th best) + 1 as results land.
/// The answer does not depend on the schedule; `stats` does above one
/// worker (which losers were pruned, and how), and at one worker equals
/// the serial refine's.
[[nodiscard]] std::vector<Neighbor> topKDivergence(
    const db::CodebaseDb &query, const std::vector<const db::CodebaseDb *> &corpus, usize k,
    Metric metric, Variant variant = {}, const tree::TedOptions &ted = {},
    const MatchOptions &match = {}, QueryStats *stats = nullptr);

/// Every corpus entry within distance <= radius, ascending (distance,
/// index). Exact member distances; non-members are pruned unevaluated.
/// Refined serially on the caller: range queries are short, and a node per
/// query costs more latency than it saves.
[[nodiscard]] std::vector<Neighbor> rangeDivergence(
    const db::CodebaseDb &query, const std::vector<const db::CodebaseDb *> &corpus, u64 radius,
    Metric metric, Variant variant = {}, const tree::TedOptions &ted = {},
    const MatchOptions &match = {}, QueryStats *stats = nullptr);

/// Pairwise TED matrix over `corpus`, row-major n*n, parallelised over the
/// upper triangle and mirrored (assumes symmetric del/ins costs, the
/// default). With cutoff > 0 entries are min(exact, cutoff): pairs whose
/// signature bound reaches the cutoff never run a DP. The input for
/// k-medoids clustering of generated corpora.
[[nodiscard]] std::vector<u64> treeDistanceMatrix(const std::vector<tree::Tree> &corpus,
                                                  const tree::TedOptions &ted, u64 cutoff,
                                                  QueryStats *stats = nullptr);

} // namespace sv::metrics
