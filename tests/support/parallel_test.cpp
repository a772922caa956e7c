#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "support/parallel.hpp"

using namespace sv;

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // Pool remains usable after an error.
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.wait(); // must not deadlock
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
  // Nested parallelFor no longer degrades to a serial loop: each call owns
  // a shared drain state whose helper tasks are cancellable, so the caller
  // never depends on pool capacity for progress. Three levels deep with
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

TEST(ParallelMap, ProducesOrderedResults) {
  const auto out = parallelMap(1000, [](usize i) { return i * 3; });
  for (usize i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3);
}

TEST(ParallelMap, SumMatchesSerial) {
  const auto out = parallelMap(5000, [](usize i) { return static_cast<u64>(i); });
  const u64 total = std::accumulate(out.begin(), out.end(), u64{0});
  EXPECT_EQ(total, u64{5000} * 4999 / 2);
}
