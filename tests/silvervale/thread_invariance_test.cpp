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

TEST(ThreadInvariance, TopKAndRangeQueriesWithStats) {
  // Every third port as the corpus and three of them as queries: each
  // top-k and range answer, and the filter's QueryStats, must not depend
  // on the worker count.
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
  const auto sameHits = [](const std::vector<metrics::Neighbor> &a,
                           const std::vector<metrics::Neighbor> &b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](auto &x, auto &y) {
             return x.index == y.index && x.distance == y.distance &&
                    x.normalised == y.normalised;
           });
  };
  const auto sameStats = [](const metrics::QueryStats &a, const metrics::QueryStats &b) {
    return std::tie(a.candidates, a.prunedByBound, a.prunedByCutoff, a.exact) ==
           std::tie(b.candidates, b.prunedByBound, b.prunedByCutoff, b.exact);
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
      EXPECT_TRUE(sameStats(got.topK, ref.topK)) << "top-k stats" << at;
      EXPECT_TRUE(sameStats(got.range, ref.range)) << "range stats" << at;
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
