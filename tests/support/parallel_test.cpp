#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "support/parallel.hpp"
#include "support/pipeline.hpp"

using namespace sv;

TEST(ThreadPool, RunsAllTasks) {
  std::mutex mu;
  std::condition_variable allDone;
  int count = 0;
  ThreadPool pool(4); // declared last: joins its workers before mu goes
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      const std::lock_guard lock(mu);
      if (++count == 100) allDone.notify_one();
    });
  }
  std::unique_lock lock(mu);
  allDone.wait(lock, [&] { return count == 100; });
  EXPECT_EQ(count, 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const usize n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallelFor(n, [&](usize i) { hits[i].fetch_add(1); });
  for (usize i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroIterations) {
  bool called = false;
  parallelFor(0, [&](usize) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialFallbackMatches) {
  std::vector<int> out(64, 0);
  parallelFor(64, [&](usize i) { out[i] = static_cast<int>(i * i); }, 1);
  for (usize i = 0; i < 64; ++i) EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(parallelFor(100, [](usize i) {
    if (i == 42) throw std::logic_error("bad index");
  }),
               std::logic_error);
}

TEST(ParallelFor, SingleItemRunsInlineOnCaller) {
  (void)drainPipelineStats();
  std::thread::id ranOn;
  parallelFor(1, [&](usize i) {
    EXPECT_EQ(i, 0u);
    ranOn = std::this_thread::get_id();
  }, 4, "single-item");
  EXPECT_EQ(ranOn, std::this_thread::get_id());
  EXPECT_THROW(parallelFor(1, [](usize) { throw std::logic_error("only item"); }, 4,
                           "single-item-throws"),
               std::logic_error);
  // One row per call, the throwing one included.
  const auto rows = drainPipelineStats();
  ASSERT_EQ(rows.size(), 2u);
  for (const auto &row : rows) {
    EXPECT_EQ(row.workers, 1u);
    EXPECT_EQ(row.items, 1u);
    EXPECT_EQ(row.wallMs, row.busyMs);
  }
  EXPECT_EQ(rows[0].name, "single-item");
  EXPECT_EQ(rows[1].name, "single-item-throws");
}

TEST(ResolveThreadCount, PrecedenceAndParsing) {
  // Explicit argument wins over everything.
  EXPECT_EQ(resolveThreadCount(5, "3", 8), 5u);
  // SV_THREADS value is honoured when positive.
  EXPECT_EQ(resolveThreadCount(0, "3", 8), 3u);
  // Absent, zero or unparsable env falls through to hardware.
  EXPECT_EQ(resolveThreadCount(0, nullptr, 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "0", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "garbage", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "3x", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "", 8), 8u);
  // Unknown hardware concurrency floors at one worker.
  EXPECT_EQ(resolveThreadCount(0, nullptr, 0), 1u);
}

TEST(ParallelFor, SharedPoolIsReusedAcrossCalls) {
  ThreadPool &first = sharedPool();
  const usize count = first.threadCount();
  EXPECT_GE(count, 1u);
  // Run work through parallelFor, then confirm the pool object and its
  // workers are the same ones — no per-call spawn/join remains.
  std::atomic<usize> sum{0};
  parallelFor(1000, [&](usize i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), usize{1000} * 999 / 2);
  EXPECT_EQ(&sharedPool(), &first);
  EXPECT_EQ(sharedPool().threadCount(), count);
}

TEST(ParallelFor, ConfigureThreadsCapsParallelism) {
  configureThreads(1);
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallelFor(64, [&](usize) {
    const std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id()); // ran serially inline
  configureThreads(0); // restore the SV_THREADS / hardware default
}

TEST(ParallelFor, NestedCallsExecuteWithoutDeadlockOrLoss) {
  // Nested parallelFor runs in parallel: each call drains its own runtime
  // and its borrowed helpers are cancellable, so the caller never depends
  // on pool capacity for progress. Three levels deep with
  // parallelism forced at every level — a regression to any scheme where a
  // nested call waits on queue slots held by its ancestors hangs here (and
  // is caught by the ctest timeout).
  std::atomic<int> leaves{0};
  parallelFor(
      4,
      [&](usize) {
        parallelFor(
            4,
            [&](usize) {
              parallelFor(
                  4, [&](usize) { leaves.fetch_add(1); }, 2);
            },
            2);
      },
      4);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ParallelFor, NestedCallCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(32 * 32);
  parallelFor(
      32,
      [&](usize i) {
        parallelFor(
            32, [&](usize j) { hits[i * 32 + j].fetch_add(1); }, 3);
      },
      3);
  for (usize k = 0; k < hits.size(); ++k) EXPECT_EQ(hits[k].load(), 1) << k;
}

TEST(ParallelFor, ExceptionLeavesSharedPoolUsable) {
  EXPECT_THROW(
      parallelFor(100, [](usize i) { if (i == 7) throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  parallelFor(100, [&](usize) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}
