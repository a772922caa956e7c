// Filter-and-refine query layer on the real corpus: top-k must be
// byte-identical to brute-force exact ranking, range queries symmetric,
// divergence a metric (triangle spot checks), bounded evaluation identical
// engine on and off, and k-medoids a sane clustering of the result.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/analysis.hpp"
#include "corpus/corpus.hpp"
#include "metrics/query.hpp"
#include "tree/tedengine.hpp"

using namespace sv;
using namespace sv::metrics;

namespace {

db::CodebaseDb indexed(const std::string &app, const std::string &model) {
  return db::index(corpus::make(app, model)).db;
}

/// Every model port of `app`, indexed.
std::vector<db::CodebaseDb> allPorts(const std::string &app) {
  std::vector<db::CodebaseDb> out;
  for (const auto &model : corpus::modelsOf(app)) out.push_back(indexed(app, model));
  return out;
}

std::vector<const db::CodebaseDb *> pointers(const std::vector<db::CodebaseDb> &dbs,
                                             usize skip = static_cast<usize>(-1)) {
  std::vector<const db::CodebaseDb *> out;
  for (usize i = 0; i < dbs.size(); ++i)
    if (i != skip) out.push_back(&dbs[i]);
  return out;
}

/// Brute force: every candidate exact, sorted by (distance, index).
std::vector<Neighbor> bruteTopK(const db::CodebaseDb &query,
                                const std::vector<const db::CodebaseDb *> &corpus, usize k) {
  std::vector<Neighbor> all;
  for (usize i = 0; i < corpus.size(); ++i) {
    const auto d = diverge(query, *corpus[i], Metric::Tsem);
    all.push_back({i, d.distance, d.normalised()});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor &a, const Neighbor &b) {
    return std::tie(a.distance, a.index) < std::tie(b.distance, b.index);
  });
  if (all.size() > k) all.resize(k);
  return all;
}

class QueryMiniapps : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(QueryMiniapps, TopKIdenticalToBruteForce) {
  const auto ports = allPorts(GetParam());
  for (usize q = 0; q < ports.size(); ++q) {
    const auto corpus = pointers(ports, q);
    for (const usize k : {usize{1}, usize{3}, corpus.size()}) {
      QueryStats stats;
      const auto fast = topKDivergence(ports[q], corpus, k, Metric::Tsem, {}, {}, {}, &stats);
      const auto slow = bruteTopK(ports[q], corpus, k);
      ASSERT_EQ(fast.size(), slow.size()) << GetParam() << " q=" << q << " k=" << k;
      for (usize i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].index, slow[i].index) << GetParam() << " q=" << q << " k=" << k;
        EXPECT_EQ(fast[i].distance, slow[i].distance)
            << GetParam() << " q=" << q << " k=" << k;
      }
      EXPECT_EQ(stats.candidates, corpus.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiniapps, QueryMiniapps,
                         ::testing::Values("babelstream", "tealeaf", "cloverleaf", "minibude"));

TEST(Query, RangeQueryIsSymmetric) {
  const auto ports = allPorts("tealeaf");
  // d(i, j) <= r iff d(j, i) <= r under unit costs, so membership of j in
  // range(i) must equal membership of i in range(j), radius by radius.
  for (const u64 radius : {u64{50}, u64{200}, u64{1000}}) {
    for (usize i = 0; i < ports.size(); ++i) {
      const auto hitsI = rangeDivergence(ports[i], pointers(ports, i), radius, Metric::Tsem);
      for (const auto &nb : hitsI) {
        const usize j = nb.index < i ? nb.index : nb.index + 1; // undo the skip
        const auto hitsJ = rangeDivergence(ports[j], pointers(ports, j), radius, Metric::Tsem);
        bool found = false;
        for (const auto &back : hitsJ) {
          const usize original = back.index < j ? back.index : back.index + 1;
          if (original == i) {
            found = true;
            EXPECT_EQ(back.distance, nb.distance) << "asymmetric distance " << i << "," << j;
          }
        }
        EXPECT_TRUE(found) << "range membership not symmetric: " << i << " -> " << j
                           << " radius " << radius;
      }
    }
  }
}

TEST(Query, RangeResultsAreWithinRadiusAndSorted) {
  const auto ports = allPorts("babelstream");
  const u64 radius = 300;
  const auto hits = rangeDivergence(ports[0], pointers(ports, usize{0}), radius, Metric::Tsem);
  for (usize i = 0; i < hits.size(); ++i) {
    EXPECT_LE(hits[i].distance, radius);
    if (i > 0) {
      EXPECT_LE(std::tie(hits[i - 1].distance, hits[i - 1].index),
                std::tie(hits[i].distance, hits[i].index));
    }
  }
}

TEST(Query, RangeAtLargestRadiusListsEveryCandidate) {
  // radius + 1 would wrap to 0 here; the query must still evaluate every
  // candidate exactly and return the brute-force list.
  const auto ports = allPorts("babelstream");
  const auto corpus = pointers(ports, usize{0});
  QueryStats stats;
  const auto hits = rangeDivergence(ports[0], corpus, ~u64{0}, Metric::Tsem, {}, {}, {}, &stats);
  const auto all = bruteTopK(ports[0], corpus, corpus.size());
  ASSERT_EQ(hits.size(), all.size());
  for (usize i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].index, all[i].index);
    EXPECT_EQ(hits[i].distance, all[i].distance);
  }
  EXPECT_EQ(stats.prunedByBound, 0u);
  EXPECT_EQ(stats.exact, corpus.size());
}

TEST(Query, TriangleInequalitySpotChecks) {
  const auto ports = allPorts("minibude");
  ASSERT_GE(ports.size(), 3u);
  const auto d = [&](usize i, usize j) {
    return diverge(ports[i], ports[j], Metric::Tsem).distance;
  };
  for (usize a = 0; a < ports.size(); ++a)
    for (usize b = a + 1; b < ports.size(); ++b)
      for (usize c = b + 1; c < ports.size(); ++c) {
        EXPECT_LE(d(a, c), d(a, b) + d(b, c)) << a << "," << b << "," << c;
        EXPECT_LE(d(a, b), d(a, c) + d(b, c)) << a << "," << b << "," << c;
        EXPECT_LE(d(b, c), d(a, b) + d(a, c)) << a << "," << b << "," << c;
      }
}

TEST(Query, DivergenceLowerBoundIsAdmissible) {
  const auto ports = allPorts("tealeaf");
  for (usize i = 0; i < ports.size(); ++i)
    for (usize j = 0; j < ports.size(); ++j) {
      const u64 lb = divergenceLowerBound(ports[i], ports[j], Metric::Tsem);
      const u64 exact = diverge(ports[i], ports[j], Metric::Tsem).distance;
      EXPECT_LE(lb, exact) << i << "," << j;
    }
}

TEST(Query, BoundedDivergenceEngineOnOffParity) {
  const auto a = indexed("tealeaf", "serial");
  const auto b = indexed("tealeaf", "omp");
  const u64 exact = diverge(a, b, Metric::Tsem).distance;
  tree::TedOptions off;
  off.useCache = false;
  for (const u64 cutoff : {exact / 2 + 1, exact, exact + 1, exact + 100}) {
    const auto on = divergeBounded(a, b, Metric::Tsem, {}, {}, {}, cutoff);
    const auto ref = divergeBounded(a, b, Metric::Tsem, {}, off, {}, cutoff);
    EXPECT_EQ(on.outcome, ref.outcome) << "cutoff " << cutoff;
    EXPECT_EQ(on.divergence.distance, ref.divergence.distance) << "cutoff " << cutoff;
    EXPECT_EQ(on.divergence.dmaxSym, ref.divergence.dmaxSym) << "cutoff " << cutoff;
    // The cutoff contract at the divergence level: Exact iff exact < cutoff.
    if (exact < cutoff) {
      EXPECT_EQ(on.outcome, FilterOutcome::Exact) << "cutoff " << cutoff;
      EXPECT_EQ(on.divergence.distance, exact) << "cutoff " << cutoff;
    } else {
      EXPECT_NE(on.outcome, FilterOutcome::Exact) << "cutoff " << cutoff;
      EXPECT_EQ(on.divergence.distance, cutoff) << "cutoff " << cutoff;
    }
  }
}

TEST(Query, KMedoidsSanity) {
  // Two tight groups far apart: k=2 must split them, with zero-cost
  // medoid assignment inside each group.
  analysis::DistanceMatrix m;
  m.labels = {"a1", "a2", "a3", "b1", "b2"};
  m.values.assign(25, 0.0);
  for (usize i = 0; i < 5; ++i)
    for (usize j = 0; j < 5; ++j) {
      const bool ia = i < 3, ja = j < 3;
      if (i != j) m.values[i * 5 + j] = ia == ja ? 1.0 : 100.0;
    }
  const auto km = analysis::kMedoids(m, 2);
  ASSERT_EQ(km.medoids.size(), 2u);
  EXPECT_EQ(km.assignment[0], km.assignment[1]);
  EXPECT_EQ(km.assignment[1], km.assignment[2]);
  EXPECT_EQ(km.assignment[3], km.assignment[4]);
  EXPECT_NE(km.assignment[0], km.assignment[3]);
  EXPECT_DOUBLE_EQ(km.cost, 3.0); // 2 + 1 non-medoid members at distance 1
  // k >= n: every member is its own medoid at zero cost.
  const auto all = analysis::kMedoids(m, 7);
  EXPECT_EQ(all.medoids.size(), 5u);
  EXPECT_DOUBLE_EQ(all.cost, 0.0);
}

TEST(Query, TreeDistanceMatrixCutoffClampsAndIsSymmetric) {
  std::vector<tree::Tree> corpus;
  for (u32 s = 1; s <= 6; ++s) corpus.push_back([&] {
    auto t = tree::Tree::leaf("R");
    for (u32 i = 0; i < s * 6; ++i) t.addChild(i % t.size(), "n" + std::to_string(i % 3));
    return t;
  }());
  const u64 cutoff = 12;
  QueryStats stats;
  const auto capped = treeDistanceMatrix(corpus, {}, cutoff, &stats);
  const auto exact = treeDistanceMatrix(corpus, {}, 0);
  const usize n = corpus.size();
  for (usize i = 0; i < n; ++i)
    for (usize j = 0; j < n; ++j) {
      EXPECT_EQ(capped[i * n + j], capped[j * n + i]);
      EXPECT_EQ(capped[i * n + j], std::min(exact[i * n + j], cutoff)) << i << "," << j;
    }
  EXPECT_EQ(stats.candidates, n * (n - 1) / 2);
}
