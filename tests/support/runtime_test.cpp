// Stress and semantics tests for the streaming runtime: the per-worker
// WorkStealingDeque (operation-count invariants under a concurrent owner
// and stealers), StreamRuntime, and the one node built on it (parallelFor).
// Node measurements are read back through the process-wide registry. The silvervale-level thread-count invariance tests
// live in tests/silvervale/thread_invariance_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/deque.hpp"
#include "support/pipeline.hpp"

using namespace sv;

TEST(WorkStealingDeque, OwnerIsLifoThiefIsFifo) {
  WorkStealingDeque<int> d;
  d.pushBottom(1);
  d.pushBottom(2);
  d.pushBottom(3);
  EXPECT_EQ(d.stealTop().value(), 1);  // thief takes the oldest
  EXPECT_EQ(d.popBottom().value(), 3); // owner takes the newest
  EXPECT_EQ(d.popBottom().value(), 2);
  EXPECT_FALSE(d.popBottom().has_value());
  EXPECT_FALSE(d.stealTop().has_value());
  EXPECT_EQ(d.pushedCount(), 3u);
  EXPECT_EQ(d.poppedCount(), 2u);
  EXPECT_EQ(d.stolenCount(), 1u);
}

TEST(WorkStealingDeque, StressOwnerAgainstStealers) {
  WorkStealingDeque<usize> d;
  const usize n = 20000;
  std::vector<std::atomic<u8>> seen(n);
  std::atomic<usize> taken{0};

  std::vector<std::thread> stealers;
  for (usize s = 0; s < 3; ++s) {
    stealers.emplace_back([&] {
      while (taken.load() < n) {
        if (const auto v = d.stealTop()) {
          seen[*v].fetch_add(1);
          taken.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  // Owner: interleave pushes with LIFO pops, then drain what the thieves
  // left behind.
  for (usize i = 0; i < n; ++i) {
    d.pushBottom(i);
    if (i % 4 == 3) {
      if (const auto v = d.popBottom()) {
        seen[*v].fetch_add(1);
        taken.fetch_add(1);
      }
    }
  }
  while (const auto v = d.popBottom()) {
    seen[*v].fetch_add(1);
    taken.fetch_add(1);
  }
  while (taken.load() < n) std::this_thread::yield(); // thieves finish the tail
  for (auto &s : stealers) s.join();

  for (usize i = 0; i < n; ++i) ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  // Conservation: everything pushed left exactly once, by pop or by steal.
  EXPECT_EQ(d.pushedCount(), n);
  EXPECT_EQ(d.poppedCount() + d.stolenCount(), n);
  EXPECT_EQ(d.size(), 0u);
}

TEST(StreamRuntime, RunsTransitivelySpawnedTasks) {
  StreamRuntime rt("spawn-test", 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    rt.spawn([&rt, &count] {
      count.fetch_add(1);
      for (int j = 0; j < 4; ++j) rt.spawn([&count] { count.fetch_add(1); });
    });
  }
  rt.run();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
  const NodeStats s = rt.stats();
  EXPECT_EQ(s.items, 40u);
  EXPECT_GE(s.workers, 1u);
  EXPECT_GT(s.busyMs, 0.0);
  EXPECT_GE(s.maxQueueDepth, 1u);
}

TEST(StreamRuntime, EmptyRunReturnsImmediately) {
  StreamRuntime rt("empty", 2);
  rt.run();
  EXPECT_EQ(rt.stats().items, 0u);
}

TEST(StreamRuntime, RethrowsFirstTaskErrorCountsRest) {
  const usize before = suppressedErrorCount();
  StreamRuntime rt("errors", 2);
  for (int i = 0; i < 3; ++i) rt.spawn([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(rt.run(), std::runtime_error);
  EXPECT_EQ(suppressedErrorCount(), before + 2);
}

TEST(StreamRuntime, LateSpawnWakesSleepingHelpers) {
  // A chain of tasks: each one pauses (mostly long enough for its helpers
  // to go to sleep, sometimes not at all, so spawns also land while a
  // helper is mid-scan), spawns its successor onto its own deque, and then
  // blocks until another worker has started that successor. Only a woken
  // helper can start it, so a spawn whose wake-up is lost fails the link.
  constexpr int kRepetitions = 25;
  constexpr int kLinks = 16;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    StreamRuntime rt("late-spawn", 4);
    ASSERT_GE(rt.workerCount(), 2u);
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    int lostWakeups = 0;
    std::function<void(int)> link = [&](int i) {
      {
        const std::lock_guard lock(mu);
        started = i;
      }
      cv.notify_all();
      if (i == kLinks) return;
      std::this_thread::sleep_for(std::chrono::microseconds(i % 4 == 0 ? 0 : 500));
      rt.spawn([&link, i] { link(i + 1); });
      std::unique_lock lock(mu);
      // After one lost wake-up the rest of the chain runs unchecked.
      if (lostWakeups == 0 &&
          !cv.wait_for(lock, std::chrono::seconds(10), [&] { return started > i; }))
        ++lostWakeups;
    };
    rt.spawn([&link] { link(1); });
    rt.run();
    EXPECT_EQ(started, kLinks) << "repetition " << rep;
    ASSERT_EQ(lostWakeups, 0) << "repetition " << rep;
    EXPECT_EQ(rt.stats().items, static_cast<usize>(kLinks));
  }
}

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
