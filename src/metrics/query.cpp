#include "metrics/query.hpp"

#include <algorithm>
#include <atomic>

#include "support/parallel.hpp"
#include "tree/tedengine.hpp"

namespace sv::metrics {

namespace {

/// Filtering needs persisted tree signatures: only tree metrics have them,
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

void countOutcome(QueryStats *stats, FilterOutcome outcome) {
  if (!stats) return;
  switch (outcome) {
  case FilterOutcome::Exact: ++stats->exact; break;
  case FilterOutcome::PrunedByBound: ++stats->prunedByBound; break;
  case FilterOutcome::PrunedByCutoff: ++stats->prunedByCutoff; break;
  }
}

} // namespace

u64 divergenceLowerBound(const db::CodebaseDb &c1, const db::CodebaseDb &c2, Metric metric,
                         Variant variant, const tree::TedCosts &costs,
                         const MatchOptions &match) {
  if (!filterable(metric, variant)) return 0;
  u64 lb = 0;
  for (const auto &[u1, u2] : matchUnits(c1, c2, match)) {
    if (!u1) {
      lb += metricSignature(*u2, metric, variant).n;
      continue;
    }
    if (!u2) {
      lb += metricSignature(*u1, metric, variant).n;
      continue;
    }
    lb += tree::tedLowerBound(metricSignature(*u1, metric, variant),
                              metricSignature(*u2, metric, variant), costs);
  }
  return lb;
}

BoundedDivergence divergeBounded(const db::CodebaseDb &c1, const db::CodebaseDb &c2,
                                 Metric metric, Variant variant, const tree::TedOptions &ted,
                                 const MatchOptions &match, u64 cutoff) {
  if (cutoff == 0 || !filterable(metric, variant))
    return {diverge(c1, c2, metric, variant, ted, match), FilterOutcome::Exact};

  struct MatchedPair {
    const db::UnitEntry *u1 = nullptr;
    const db::UnitEntry *u2 = nullptr;
    u64 lb = 0;
  };
  Divergence acc; // exact contributions only; normalisers always exact
  std::vector<MatchedPair> pairs;
  u64 sumLb = 0;
  for (const auto &[u1, u2] : matchUnits(c1, c2, match)) {
    if (!u1) {
      const u64 n2 = metricSignature(*u2, metric, variant).n;
      acc.distance += n2;
      acc.dmaxEq7 += n2;
      acc.dmaxSym += n2;
      ++acc.unmatchedUnits;
      continue;
    }
    if (!u2) {
      const u64 n1 = metricSignature(*u1, metric, variant).n;
      acc.distance += n1;
      acc.dmaxSym += n1;
      ++acc.unmatchedUnits;
      continue;
    }
    const auto &s1 = metricSignature(*u1, metric, variant);
    const auto &s2 = metricSignature(*u2, metric, variant);
    acc.dmaxEq7 += s2.n;
    acc.dmaxSym += s1.n + s2.n;
    ++acc.matchedUnits;
    const u64 lb = tree::tedLowerBound(s1, s2, ted.costs);
    pairs.push_back({u1, u2, lb});
    sumLb += lb;
  }

  const auto pruned = [&](FilterOutcome outcome) {
    BoundedDivergence out{acc, outcome};
    out.divergence.distance = cutoff; // the true distance is >= cutoff
    return out;
  };
  if (acc.distance + sumLb >= cutoff) return pruned(FilterOutcome::PrunedByBound);

  // Refine biggest bound first: the pairs most likely to blow the budget
  // run while the budget is still loose enough to abandon them early.
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const MatchedPair &a, const MatchedPair &b) { return a.lb > b.lb; });
  u64 remaining = sumLb;
  for (const auto &p : pairs) {
    remaining -= p.lb;
    // > p.lb by the invariant acc + remaining-before-this-pair < cutoff.
    const u64 budget = cutoff - acc.distance - remaining;
    auto opts = ted;
    opts.cutoff = budget;
    acc.distance += tree::tedDispatch(metricTree(*p.u1, metric, variant),
                                      metricTree(*p.u2, metric, variant), opts);
    if (acc.distance + remaining >= cutoff) return pruned(FilterOutcome::PrunedByCutoff);
  }
  return {acc, FilterOutcome::Exact};
}

std::vector<Neighbor> topKDivergence(const db::CodebaseDb &query,
                                     const std::vector<const db::CodebaseDb *> &corpus, usize k,
                                     Metric metric, Variant variant, const tree::TedOptions &ted,
                                     const MatchOptions &match, QueryStats *stats) {
  if (k == 0 || corpus.empty()) return {};

  // Filter order: cheapest-looking candidates first, so the cutoff tightens
  // as fast as possible.
  std::vector<std::pair<u64, usize>> order;
  order.reserve(corpus.size());
  for (usize i = 0; i < corpus.size(); ++i)
    order.push_back({divergenceLowerBound(query, *corpus[i], metric, variant, ted.costs, match), i});
  std::sort(order.begin(), order.end());

  TopKPool pool(k);
  for (const auto &[lb, i] : order) {
    if (stats) ++stats->candidates;
    const u64 cut = pool.cutoff();
    if (cut > 0 && lb >= cut) {
      if (stats) ++stats->prunedByBound;
      continue;
    }
    const auto bd = divergeBounded(query, *corpus[i], metric, variant, ted, match, cut);
    countOutcome(stats, bd.outcome);
    if (bd.outcome != FilterOutcome::Exact) continue;
    pool.offer({i, bd.divergence.distance, bd.divergence.normalised()});
  }
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
  std::vector<Neighbor> out;
  for (usize i = 0; i < corpus.size(); ++i) {
    if (stats) ++stats->candidates;
    if (cut > 0 &&
        divergenceLowerBound(query, *corpus[i], metric, variant, ted.costs, match) >= cut) {
      if (stats) ++stats->prunedByBound;
      continue;
    }
    const auto bd = divergeBounded(query, *corpus[i], metric, variant, ted, match, cut);
    countOutcome(stats, bd.outcome);
    if (bd.outcome != FilterOutcome::Exact) continue;
    out.push_back({i, bd.divergence.distance, bd.divergence.normalised()});
  }
  std::sort(out.begin(), out.end(), neighborLess);
  return out;
}

std::vector<Neighbor> topKTrees(const tree::Tree &query, const std::vector<tree::Tree> &corpus,
                                usize k, const tree::TedOptions &ted, QueryStats *stats) {
  if (k == 0 || corpus.empty()) return {};
  const auto qsig = tree::boundSignature(query);

  std::vector<std::pair<u64, usize>> order;
  order.reserve(corpus.size());
  for (usize i = 0; i < corpus.size(); ++i)
    order.push_back({tree::tedLowerBound(qsig, tree::boundSignature(corpus[i]), ted.costs), i});
  std::sort(order.begin(), order.end());

  TopKPool pool(k);
  for (const auto &[lb, i] : order) {
    if (stats) ++stats->candidates;
    const u64 cut = pool.cutoff();
    if (cut > 0 && lb >= cut) {
      if (stats) ++stats->prunedByBound;
      continue;
    }
    auto opts = ted;
    opts.cutoff = cut;
    const u64 d = tree::tedDispatch(query, corpus[i], opts);
    if (cut > 0 && d >= cut) {
      if (stats) ++stats->prunedByCutoff;
      continue;
    }
    if (stats) ++stats->exact;
    const u64 dmax = query.size() + corpus[i].size();
    pool.offer({i, d, dmax == 0 ? 0.0 : static_cast<double>(d) / static_cast<double>(dmax)});
  }
  return std::move(pool).sorted();
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

  std::atomic<usize> prunedByBound{0}, prunedByCutoff{0}, exact{0};
  const auto comparePair = [&](usize p) {
    const auto [i, j] = todo[p];
    u64 v;
    if (cutoff > 0 && tree::tedLowerBound(sigs[i], sigs[j], ted.costs) >= cutoff) {
      v = cutoff;
      prunedByBound.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto opts = ted;
      opts.cutoff = cutoff;
      v = tree::tedDispatch(corpus[i], corpus[j], opts);
      if (cutoff > 0 && v >= cutoff)
        prunedByCutoff.fetch_add(1, std::memory_order_relaxed);
      else
        exact.fetch_add(1, std::memory_order_relaxed);
    }
    values[static_cast<usize>(i) * n + j] = v;
    values[static_cast<usize>(j) * n + i] = v;
  };
  parallelFor(todo.size(), comparePair, 0, "tree-pairs");
  if (stats) {
    stats->candidates += todo.size();
    stats->prunedByBound += prunedByBound.load();
    stats->prunedByCutoff += prunedByCutoff.load();
    stats->exact += exact.load();
  }
  return values;
}

} // namespace sv::metrics
