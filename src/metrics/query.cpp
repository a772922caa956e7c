#include "metrics/query.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "support/parallel.hpp"
#include "tree/tedengine.hpp"

namespace sv::metrics {

namespace {

/// Filtering needs the DB's tree signatures: only tree metrics have them,
/// and the +coverage variant masks trees per call so the stored signatures
/// no longer describe what the DP would see.
bool filterable(Metric metric, const Variant &variant) {
  return isTreeMetric(metric) && !variant.coverage;
}

bool neighborLess(const Neighbor &a, const Neighbor &b) {
  return std::tie(a.distance, a.index) < std::tie(b.distance, b.index);
}

/// Shared top-k bookkeeping: a max-heap of the current k best by
/// (distance, index), whose worst element supplies the shrinking cutoff.
class TopKPool {
public:
  explicit TopKPool(usize k) : k_(k) {}

  /// 0 while the pool is filling (evaluate exactly), else kth-best + 1 —
  /// the smallest cutoff that still computes every potential winner
  /// (including index ties at the k-th distance) exactly.
  [[nodiscard]] u64 cutoff() const {
    return best_.size() < k_ ? 0 : best_.front().distance + 1;
  }

  void offer(const Neighbor &nb) {
    if (best_.size() < k_) {
      best_.push_back(nb);
      std::push_heap(best_.begin(), best_.end(), neighborLess);
    } else if (neighborLess(nb, best_.front())) {
      std::pop_heap(best_.begin(), best_.end(), neighborLess);
      best_.back() = nb;
      std::push_heap(best_.begin(), best_.end(), neighborLess);
    }
  }

  [[nodiscard]] std::vector<Neighbor> sorted() && {
    std::sort(best_.begin(), best_.end(), neighborLess);
    return std::move(best_);
  }

private:
  usize k_;
  std::vector<Neighbor> best_;
};

/// One query against a corpus: every candidate's bounds built once when the
/// metric filters, exact diverge() otherwise.
struct Search {
  const db::CodebaseDb &query;
  const std::vector<const db::CodebaseDb *> &corpus;
  Metric metric;
  Variant variant;
  const tree::TedOptions &ted;
  const MatchOptions &match;
  std::vector<CandidateBounds> bounds{}; ///< per candidate; empty when not filterable

  void buildBounds() {
    if (!filterable(metric, variant)) return;
    bounds.reserve(corpus.size());
    for (const auto *c : corpus)
      bounds.push_back(candidateBounds(query, *c, metric, variant, ted.costs, match));
  }

  [[nodiscard]] u64 lowerBound(usize i) const {
    return bounds.empty() ? 0 : bounds[i].lowerBound;
  }

  [[nodiscard]] BoundedDivergence evaluate(usize i, u64 cutoff) const {
    if (bounds.empty())
      return {diverge(query, *corpus[i], metric, variant, ted, match), FilterOutcome::Exact};
    return divergeBounded(bounds[i], ted, cutoff);
  }
};

} // namespace

CandidateBounds candidateBounds(const db::CodebaseDb &c1, const db::CodebaseDb &c2,
                                Metric metric, Variant variant, const tree::TedCosts &costs,
                                const MatchOptions &match) {
  SV_CHECK(filterable(metric, variant), "candidateBounds: metric has no usable signatures");
  CandidateBounds out;
  out.metric = metric;
  out.variant = variant;
  Divergence &base = out.base;
  for (const auto &[u1, u2] : matchUnits(c1, c2, match)) {
    if (!u1) {
      const u64 n2 = metricSignature(*u2, metric, variant).n;
      base.distance += n2;
      base.dmaxEq7 += n2;
      base.dmaxSym += n2;
      ++base.unmatchedUnits;
      continue;
    }
    if (!u2) {
      const u64 n1 = metricSignature(*u1, metric, variant).n;
      base.distance += n1;
      base.dmaxSym += n1;
      ++base.unmatchedUnits;
      continue;
    }
    const auto &s1 = metricSignature(*u1, metric, variant);
    const auto &s2 = metricSignature(*u2, metric, variant);
    base.dmaxEq7 += s2.n;
    base.dmaxSym += s1.n + s2.n;
    ++base.matchedUnits;
    const u64 lb = tree::tedLowerBound(s1, s2, costs);
    out.pairs.push_back({u1, u2, lb});
    out.lowerBound += lb;
  }
  out.lowerBound += base.distance;
  return out;
}

u64 divergenceLowerBound(const db::CodebaseDb &c1, const db::CodebaseDb &c2, Metric metric,
                         Variant variant, const tree::TedCosts &costs,
                         const MatchOptions &match) {
  if (!filterable(metric, variant)) return 0;
  return candidateBounds(c1, c2, metric, variant, costs, match).lowerBound;
}

BoundedDivergence divergeBounded(const db::CodebaseDb &c1, const db::CodebaseDb &c2,
                                 Metric metric, Variant variant, const tree::TedOptions &ted,
                                 const MatchOptions &match, u64 cutoff) {
  if (!filterable(metric, variant))
    return {diverge(c1, c2, metric, variant, ted, match), FilterOutcome::Exact};
  return divergeBounded(candidateBounds(c1, c2, metric, variant, ted.costs, match), ted, cutoff);
}

BoundedDivergence divergeBounded(const CandidateBounds &bounds, const tree::TedOptions &ted,
                                 u64 cutoff) {
  using Pair = CandidateBounds::Pair;
  Divergence acc = bounds.base; // exact contributions only; normalisers always exact
  const auto pairTed = [&](const Pair &p, const tree::TedOptions &opts) {
    return tree::tedDispatch(metricTree(*p.u1, bounds.metric, bounds.variant),
                             metricTree(*p.u2, bounds.metric, bounds.variant), opts);
  };
  if (cutoff == 0) { // exact, in diverge()'s pair order
    for (const auto &p : bounds.pairs) acc.distance += pairTed(p, ted);
    return {acc, FilterOutcome::Exact};
  }

  const auto pruned = [&](FilterOutcome outcome) {
    BoundedDivergence out{acc, outcome};
    out.divergence.distance = cutoff; // the true distance is >= cutoff
    return out;
  };
  // The filter: the one place a lower bound settles an evaluation unrun.
  if (bounds.lowerBound >= cutoff) return pruned(FilterOutcome::PrunedByBound);

  // Refine biggest bound first: the pairs most likely to blow the budget
  // run while the budget is still loose enough to abandon them early.
  auto pairs = bounds.pairs;
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair &a, const Pair &b) { return a.lb > b.lb; });
  u64 remaining = bounds.lowerBound - acc.distance;
  for (const auto &p : pairs) {
    remaining -= p.lb;
    // > p.lb by the invariant acc + remaining-before-this-pair < cutoff.
    const u64 budget = cutoff - acc.distance - remaining;
    auto opts = ted;
    opts.cutoff = budget;
    acc.distance += pairTed(p, opts);
    if (acc.distance + remaining >= cutoff) return pruned(FilterOutcome::PrunedByCutoff);
  }
  return {acc, FilterOutcome::Exact};
}

std::vector<Neighbor> topKDivergence(const db::CodebaseDb &query,
                                     const std::vector<const db::CodebaseDb *> &corpus, usize k,
                                     Metric metric, Variant variant, const tree::TedOptions &ted,
                                     const MatchOptions &match, QueryStats *stats) {
  if (k == 0 || corpus.empty()) return {};
  Search search{query, corpus, metric, variant, ted, match};
  search.buildBounds();

  // Filter order: cheapest-looking candidates first, so the cutoff tightens
  // as fast as possible. One worker takes them in exactly this order.
  std::vector<std::pair<u64, usize>> order;
  order.reserve(corpus.size());
  for (usize i = 0; i < corpus.size(); ++i) order.push_back({search.lowerBound(i), i});
  std::sort(order.begin(), order.end());

  // Refined in parallel under a shared cutoff that only falls (0, "exact",
  // while the pool fills). Every cutoff a task sees is >= the final k-th
  // best + 1, so every true top-k member, ties at the k-th distance
  // included, is refined exactly whatever the schedule, and the pool keeps
  // the k least (distance, index) of what it is offered. Which losers get
  // pruned, and how, does depend on the schedule above one worker.
  TopKPool pool(k);
  std::mutex poolMutex;
  std::atomic<u64> cut{0};
  std::vector<FilterOutcome> outcomes(order.size(), FilterOutcome::Exact);
  parallelFor(
      order.size(),
      [&](usize t) {
        const usize i = order[t].second;
        const auto bd = search.evaluate(i, cut.load());
        outcomes[t] = bd.outcome;
        if (bd.outcome != FilterOutcome::Exact) return;
        const std::lock_guard lock(poolMutex);
        pool.offer({i, bd.divergence.distance, bd.divergence.normalised()});
        cut.store(pool.cutoff());
      },
      0, "query-refine");
  if (stats)
    for (const FilterOutcome o : outcomes) stats->count(o);
  return std::move(pool).sorted();
}

std::vector<Neighbor> rangeDivergence(const db::CodebaseDb &query,
                                      const std::vector<const db::CodebaseDb *> &corpus,
                                      u64 radius, Metric metric, Variant variant,
                                      const tree::TedOptions &ted, const MatchOptions &match,
                                      QueryStats *stats) {
  // Exact for every distance <= radius. No cutoff exceeds UINT64_MAX, and
  // every distance is within it, so that radius evaluates all exactly.
  const u64 cut = radius == ~u64{0} ? 0 : radius + 1;
  Search search{query, corpus, metric, variant, ted, match};
  search.buildBounds();
  std::vector<Neighbor> out;
  for (usize i = 0; i < corpus.size(); ++i) {
    const auto bd = search.evaluate(i, cut);
    if (stats) stats->count(bd.outcome);
    if (bd.outcome != FilterOutcome::Exact) continue;
    out.push_back({i, bd.divergence.distance, bd.divergence.normalised()});
  }
  std::sort(out.begin(), out.end(), neighborLess);
  return out;
}

std::vector<u64> treeDistanceMatrix(const std::vector<tree::Tree> &corpus,
                                    const tree::TedOptions &ted, u64 cutoff, QueryStats *stats) {
  const usize n = corpus.size();
  std::vector<u64> values(n * n, 0);
  if (n < 2) return values;

  std::vector<tree::BoundSignature> sigs(n);
  parallelFor(
      n, [&](usize i) { sigs[i] = tree::boundSignature(corpus[i]); }, 0, "tree-signatures");

  std::vector<std::pair<u32, u32>> todo;
  todo.reserve(n * (n - 1) / 2);
  for (usize i = 0; i < n; ++i)
    for (usize j = i + 1; j < n; ++j) todo.emplace_back(static_cast<u32>(i), static_cast<u32>(j));

  std::vector<FilterOutcome> outcomes(todo.size(), FilterOutcome::Exact);
  const auto comparePair = [&](usize p) {
    const auto [i, j] = todo[p];
    u64 v = cutoff;
    if (cutoff > 0 && tree::tedLowerBound(sigs[i], sigs[j], ted.costs) >= cutoff) {
      outcomes[p] = FilterOutcome::PrunedByBound;
    } else {
      auto opts = ted;
      opts.cutoff = cutoff;
      v = tree::tedDispatch(corpus[i], corpus[j], opts);
      if (cutoff > 0 && v >= cutoff) outcomes[p] = FilterOutcome::PrunedByCutoff;
    }
    values[static_cast<usize>(i) * n + j] = v;
    values[static_cast<usize>(j) * n + i] = v;
  };
  parallelFor(todo.size(), comparePair, 0, "tree-pairs");
  if (stats)
    for (const FilterOutcome o : outcomes) stats->count(o);
  return values;
}

} // namespace sv::metrics
