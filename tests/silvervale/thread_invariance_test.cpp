// Determinism contract of the streaming runtime: the output of indexing,
// matrices, top-k/range queries and lint/deps/range reports is
// byte-identical at any worker count. A 1-worker run is the reference, and
// repeated runs at 1, 2 and 4 workers must reproduce it — results land in
// indexed slots, so completion order never leaks into an output.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "metrics/query.hpp"
#include "silvervale/silvervale.hpp"
#include "support/parallel.hpp"
#include "tree/tedengine.hpp"

using namespace sv;

namespace {

constexpr std::array<usize, 3> kWorkerCounts = {1, 2, 4};
constexpr int kRuns = 2;

/// Caps every parallelFor node at `workers` for one scope.
/// Sizes the shared pool first, so a 1-worker cap never becomes the pool's
/// permanent size.
class WorkerCap {
public:
  explicit WorkerCap(usize workers) {
    (void)sharedPool();
    configureThreads(workers);
  }
  ~WorkerCap() { configureThreads(0); }

  WorkerCap(const WorkerCap &) = delete;
  WorkerCap &operator=(const WorkerCap &) = delete;
};

using DbBytes = std::vector<std::vector<u8>>;

/// Compared element-wise: gtest would print whole byte vectors on failure.
void expectSameBytes(const DbBytes &got, const DbBytes &ref, const std::string &what) {
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (usize i = 0; i < ref.size(); ++i) EXPECT_TRUE(got[i] == ref[i]) << what << ": DB " << i;
}

} // namespace

TEST(ThreadInvariance, IndexAppAndAllPortsBytes) {
  const auto appBytes = [](usize workers) {
    const WorkerCap cap(workers);
    silvervale::IndexAppOptions options;
    options.models = {"serial", "omp", "cuda"};
    DbBytes out;
    for (const auto &db : silvervale::indexApp("babelstream", options).models)
      out.push_back(db.serialise());
    return out;
  };
  const auto allPortBytes = [](usize workers) {
    const WorkerCap cap(workers);
    DbBytes out;
    for (const auto &port : silvervale::indexAllPorts()) out.push_back(port.db.serialise());
    return out;
  };

  const auto appRef = appBytes(1);
  const auto allRef = allPortBytes(1);
  ASSERT_EQ(appRef.size(), 3u);
  for (const usize workers : kWorkerCounts) {
    for (int run = 0; run < kRuns; ++run) {
      const std::string at =
          " at workers=" + std::to_string(workers) + " run=" + std::to_string(run);
      expectSameBytes(appBytes(workers), appRef, "indexApp" + at);
      expectSameBytes(allPortBytes(workers), allRef, "indexAllPorts" + at);
    }
  }
}

TEST(ThreadInvariance, PortMatrixTsemAtBothRadii) {
  // Every third port: all five apps, and an eighth of the full matrix's
  // pairs, which keeps the 14 cold-engine matrices affordable under TSan.
  const auto all = silvervale::indexAllPorts();
  std::vector<silvervale::CorpusPort> ports;
  for (usize i = 0; i < all.size(); i += 3) ports.push_back(all[i]);
  for (const double radius : {0.0, 0.05}) {
    // A fresh engine per run, so no run replays another's pair memo.
    const auto matrix = [&](usize workers) {
      const WorkerCap cap(workers);
      tree::TedEngine::global().clear();
      return silvervale::portMatrix(ports, metrics::Metric::Tsem, {}, {}, radius);
    };
    const auto ref = matrix(1);
    for (const usize workers : kWorkerCounts) {
      for (int run = 0; run < kRuns; ++run) {
        const auto m = matrix(workers);
        ASSERT_EQ(m.labels, ref.labels);
        EXPECT_EQ(m.values, ref.values)
            << "radius=" << radius << " workers=" << workers << " run=" << run;
      }
    }
  }
}

namespace {

bool sameHits(const std::vector<metrics::Neighbor> &a, const std::vector<metrics::Neighbor> &b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](auto &x, auto &y) {
           return x.index == y.index && x.distance == y.distance && x.normalised == y.normalised;
         });
}

bool sameStats(const metrics::QueryStats &a, const metrics::QueryStats &b) {
  return std::tie(a.candidates, a.prunedByBound, a.prunedByCutoff, a.exact) ==
         std::tie(b.candidates, b.prunedByBound, b.prunedByCutoff, b.exact);
}

} // namespace

TEST(ThreadInvariance, TopKAndRangeQueriesWithStats) {
  // Every third port as the corpus and three of them as queries: each
  // top-k and range answer must not depend on the worker count, and
  // neither may range's QueryStats. Top-k refines its candidates in
  // parallel under a shared falling cutoff, so which losers get pruned,
  // and how, depends on the schedule above one worker: its stats match the
  // reference at one worker, and above that only their totals are fixed.
  const auto all = silvervale::indexAllPorts();
  std::vector<const db::CodebaseDb *> corpus;
  for (usize i = 0; i < all.size(); i += 3) corpus.push_back(&all[i].db);
  struct Answers {
    std::vector<std::vector<metrics::Neighbor>> hits;
    metrics::QueryStats topK, range;
  };
  // A fresh engine per run, so no run replays another's pair memo.
  const auto answers = [&](usize workers) {
    const WorkerCap cap(workers);
    tree::TedEngine::global().clear();
    Answers out;
    for (const usize q : {usize{0}, usize{5}, usize{11}}) {
      out.hits.push_back(metrics::topKDivergence(*corpus[q], corpus, 3, metrics::Metric::Tsem,
                                                 {}, {}, {}, &out.topK));
      out.hits.push_back(metrics::rangeDivergence(*corpus[q], corpus, 400,
                                                  metrics::Metric::Tsem, {}, {}, {}, &out.range));
    }
    return out;
  };
  const auto ref = answers(1);
  // Both queries exercise the filter, and range finds members.
  ASSERT_GT(ref.topK.prunedByBound + ref.topK.prunedByCutoff, 0u);
  ASSERT_GT(ref.range.prunedByBound + ref.range.prunedByCutoff, 0u);
  ASSERT_GT(ref.range.exact, 0u);
  for (const usize workers : kWorkerCounts) {
    for (int run = 0; run < kRuns; ++run) {
      const std::string at =
          " at workers=" + std::to_string(workers) + " run=" + std::to_string(run);
      const auto got = answers(workers);
      ASSERT_EQ(got.hits.size(), ref.hits.size());
      for (usize h = 0; h < ref.hits.size(); ++h)
        EXPECT_TRUE(sameHits(got.hits[h], ref.hits[h])) << "query " << h << at;
      EXPECT_TRUE(sameStats(got.range, ref.range)) << "range stats" << at;
      if (workers == 1) {
        EXPECT_TRUE(sameStats(got.topK, ref.topK)) << "top-k stats" << at;
      } else {
        EXPECT_EQ(got.topK.candidates, ref.topK.candidates) << "top-k candidates" << at;
        EXPECT_EQ(got.topK.prunedByBound + got.topK.prunedByCutoff + got.topK.exact,
                  got.topK.candidates)
            << "top-k outcomes" << at;
      }
    }
  }
}

TEST(ThreadInvariance, TopKTiesAtKthDistance) {
  // Every DB three times over, so the query's own copies tie at distance
  // 0 and every other distance ties three ways. k = 4 and k = 5 cut inside
  // a tie group, which only index order may break, whatever order the
  // parallel refine offered the tied candidates in.
  silvervale::IndexAppOptions options;
  options.models = {"serial", "omp", "cuda", "kokkos"};
  const auto app = silvervale::indexApp("babelstream", options);
  std::vector<const db::CodebaseDb *> corpus;
  for (int copy = 0; copy < 3; ++copy)
    for (const auto &db : app.models) corpus.push_back(&db);
  const auto &query = *corpus[1];

  std::vector<metrics::Neighbor> all;
  for (usize i = 0; i < corpus.size(); ++i) {
    const auto d = metrics::diverge(query, *corpus[i], metrics::Metric::Tsem);
    all.push_back({i, d.distance, d.normalised()});
  }
  std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
    return std::tie(a.distance, a.index) < std::tie(b.distance, b.index);
  });

  const WorkerCap cap(4);
  for (const usize k : {usize{4}, usize{5}}) {
    const std::vector<metrics::Neighbor> brute(all.begin(), all.begin() + static_cast<long>(k));
    ASSERT_EQ(brute[k - 1].distance, all[k].distance) << "k=" << k << " must cut a tie";
    for (int run = 0; run < 20; ++run) {
      tree::TedEngine::global().clear();
      const auto got = metrics::topKDivergence(query, corpus, k, metrics::Metric::Tsem);
      EXPECT_TRUE(sameHits(got, brute)) << "k=" << k << " run=" << run;
    }
  }
}

TEST(ThreadInvariance, LintDepsRangeText) {
  const auto cb = corpus::make("tealeaf", "omp");
  const auto reports = [&cb](usize workers) {
    const WorkerCap cap(workers);
    silvervale::LintOptions lint;
    lint.ir = lint.deps = lint.range = true;
    return std::array<std::string, 3>{silvervale::lintCodebase(cb, lint).renderText(),
                                      silvervale::depsCodebase(cb).renderText(),
                                      silvervale::rangeCodebase(cb).renderText()};
  };
  const auto ref = reports(1);
  for (const usize workers : kWorkerCounts) {
    for (int run = 0; run < kRuns; ++run) {
      const auto got = reports(workers);
      EXPECT_EQ(got[0], ref[0]) << "lint at workers=" << workers << " run=" << run;
      EXPECT_EQ(got[1], ref[1]) << "deps at workers=" << workers << " run=" << run;
      EXPECT_EQ(got[2], ref[2]) << "range at workers=" << workers << " run=" << run;
    }
  }
}
