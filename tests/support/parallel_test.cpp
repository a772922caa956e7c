#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
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
  // Digits only: a sign, whitespace or a value past u64 is ignored.
  EXPECT_EQ(resolveThreadCount(0, "-1", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "+3", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, " 4", 8), 8u);
  EXPECT_EQ(resolveThreadCount(0, "99999999999999999999", 8), 8u);
  // Every source is clamped to the ceiling.
  EXPECT_EQ(resolveThreadCount(100000, nullptr, 8), kMaxThreads);
  EXPECT_EQ(resolveThreadCount(0, "100000", 8), kMaxThreads);
  EXPECT_EQ(resolveThreadCount(0, nullptr, 100000), kMaxThreads);
  EXPECT_EQ(resolveThreadCount(kMaxThreads, nullptr, 8), kMaxThreads);
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

TEST(ParallelFor, RethrowsLowestFailingIndexCountsRest) {
  // Index 3 throws first in time; index 0 throws only after a pause. The
  // rethrown error must not depend on which one a worker caught first.
  for (int run = 0; run < 20; ++run) {
    const usize before = suppressedErrorCount();
    try {
      parallelFor(
          4,
          [](usize i) {
            if (i == 0) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              throw std::runtime_error("zero");
            }
            if (i == 3) throw std::runtime_error("three");
          },
          4, "lowest-error");
      ADD_FAILURE() << "run " << run << " did not throw";
    } catch (const std::runtime_error &e) {
      EXPECT_STREQ(e.what(), "zero") << "run " << run;
    }
    EXPECT_EQ(suppressedErrorCount(), before + 1) << "run " << run;
  }
}

TEST(ParallelFor, BackToBackSmallLoopsAtFourWorkers) {
  // Helpers of a small loop often reach the pool after the caller drained
  // every index and returned; such a late helper must find nothing to claim
  // and touch neither the finished loop's body nor the next loop.
  (void)drainPipelineStats();
  constexpr usize kLoops = 2000;
  for (usize loop = 0; loop < kLoops; ++loop) {
    const usize n = 2 + loop % 4;
    std::vector<int> hits(n, 0);
    parallelFor(n, [&](usize i) { ++hits[i]; }, 4, "back-to-back");
    for (usize i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "loop " << loop << " index " << i;
  }
  const auto rows = drainPipelineStats();
  ASSERT_EQ(rows.size(), kLoops);
  for (usize loop = 0; loop < kLoops; ++loop) EXPECT_EQ(rows[loop].items, 2 + loop % 4) << loop;
}

TEST(ParallelFor, ExceptionLeavesSharedPoolUsable) {
  EXPECT_THROW(
      parallelFor(100, [](usize i) { if (i == 7) throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  parallelFor(100, [&](usize) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}
