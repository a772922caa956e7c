// Semantics tests for the runtime's one node type (parallelFor) as seen
// through its NodeStats rows, and for the process-wide stats registry. The
// silvervale-level thread-count invariance tests live in
// tests/silvervale/thread_invariance_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "support/parallel.hpp"
#include "support/pipeline.hpp"

using namespace sv;

namespace {

/// The single NodeStats the last node run registered.
NodeStats drainOne() {
  auto drained = drainPipelineStats();
  EXPECT_EQ(drained.size(), 1u);
  return drained.empty() ? NodeStats{} : std::move(drained.back());
}

} // namespace

TEST(ParallelForNode, OneAndFourWorkersCoverAllIndices) {
  for (const usize threads : {usize{1}, usize{4}}) {
    std::vector<std::atomic<int>> hits(500);
    (void)drainPipelineStats();
    parallelFor(
        500, [&](usize i) { hits[i].fetch_add(1); }, threads, "hit-counter");
    for (usize i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    const NodeStats s = drainOne();
    EXPECT_EQ(s.items, 500u);
    EXPECT_EQ(s.name, "hit-counter");
    EXPECT_EQ(s.workers, std::min(threads, sharedPool().threadCount() + 1));
    EXPECT_EQ(s.maxQueueDepth, 500u);
    EXPECT_EQ(s.steals, 0u);
    EXPECT_GT(s.wallMs, 0.0);
  }
}

TEST(PipelineStats, RegistryDrainsOnce) {
  (void)drainPipelineStats(); // clear anything earlier tests registered
  parallelFor(7, [](usize) {}, 2, "first-node");
  parallelFor(10, [](usize) {}, 2, "second-node");
  const auto drained = drainPipelineStats();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].name, "first-node");
  EXPECT_EQ(drained[0].items, 7u);
  EXPECT_EQ(drained[1].name, "second-node");
  EXPECT_EQ(drained[1].items, 10u);
  EXPECT_TRUE(drainPipelineStats().empty());
}

TEST(PipelineStats, RegistryStaysBoundedAndTotalsExact) {
  (void)drainPipelineStats();
  constexpr usize kNodes = 10000;
  for (usize i = 0; i < kNodes; ++i) parallelFor(1, [](usize) {}, 1, "one-item");
  parallelFor(3, [](usize) {}, 2, "other-node"); // a new name past the cap
  const auto drained = drainPipelineStats();
  usize rows = 0;
  usize items = 0;
  for (const auto &row : drained) {
    if (row.name != "one-item") continue;
    ++rows;
    items += row.items;
  }
  EXPECT_LE(rows, kMaxPipelineStatsRows);
  EXPECT_EQ(items, kNodes);
  ASSERT_EQ(drained.size(), rows + 1);
  EXPECT_EQ(drained.back().name, "other-node");
  EXPECT_EQ(drained.back().items, 3u);
  EXPECT_TRUE(drainPipelineStats().empty());
}
