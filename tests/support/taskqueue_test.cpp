// Stress and semantics tests for the streaming-runtime primitives: the
// MPMC TaskQueue, the per-worker WorkStealingDeque (operation-count
// invariants under concurrent producers/consumers/stealers), and the
// pattern nodes built on them (StreamRuntime, Pipeline, TaskPool). The
// silvervale-level thread-count invariance tests live in
// tests/silvervale/thread_invariance_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "support/pipeline.hpp"
#include "support/taskqueue.hpp"

using namespace sv;

TEST(TaskQueue, FifoOrderSingleThread) {
  TaskQueue<int> q;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.tryPop().has_value());
  EXPECT_EQ(q.pushedCount(), 5u);
  EXPECT_EQ(q.poppedCount(), 5u);
  EXPECT_EQ(q.maxDepth(), 5u);
}

TEST(TaskQueue, CloseRejectsPushesAndDrainsPops) {
  TaskQueue<int> q;
  EXPECT_TRUE(q.push(1));
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_TRUE(q.closed());
  const auto v = q.pop(); // closed but not drained: returns the item
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.pop().has_value()); // closed and drained: no block
}

TEST(TaskQueue, StressProducersAndConsumers) {
  TaskQueue<usize> q;
  const usize producers = 4;
  const usize consumers = 4;
  const usize perProducer = 5000;
  const usize total = producers * perProducer;

  std::vector<std::atomic<u8>> seen(total);
  std::atomic<usize> consumed{0};
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (usize p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (usize k = 0; k < perProducer; ++k) ASSERT_TRUE(q.push(p * perProducer + k));
    });
  }
  for (usize c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      while (const auto v = q.pop()) {
        seen[*v].fetch_add(1);
        consumed.fetch_add(1);
      }
    });
  }
  for (usize p = 0; p < producers; ++p) threads[p].join();
  q.close();
  for (usize c = producers; c < threads.size(); ++c) threads[c].join();

  EXPECT_EQ(consumed.load(), total);
  for (usize i = 0; i < total; ++i) ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  // Operation-count invariants: every push was popped exactly once.
  EXPECT_EQ(q.pushedCount(), total);
  EXPECT_EQ(q.poppedCount(), total);
  EXPECT_GE(q.maxDepth(), 1u);
}

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
  EXPECT_EQ(rt.errorCount(), 3u);
  EXPECT_EQ(suppressedErrorCount(), before + 2);
}

namespace {

/// 2-stage pipeline used by the node tests: square then stringify.
std::vector<std::string> runSquarePipe(usize threads, NodeStats *statsOut) {
  Pipeline<usize, usize, std::string> pipe("square-pipe");
  pipe.stage<0>("square", [](usize &&v, usize) { return v * v; });
  pipe.stage<1>("render", [](usize &&v, usize) { return std::to_string(v); });
  std::vector<usize> in(100);
  for (usize i = 0; i < in.size(); ++i) in[i] = i;
  PipeOptions options;
  options.threads = threads;
  options.registerStats = false;
  auto out = pipe.run(std::move(in), options);
  if (statsOut) *statsOut = pipe.lastStats();
  return out;
}

} // namespace

TEST(PipelineNode, FourWorkersMatchOneWorkerInSlotOrder) {
  NodeStats one;
  NodeStats four;
  const auto a = runSquarePipe(1, &one);
  const auto b = runSquarePipe(4, &four);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[7], "49");
  // Both runs report per-stage children with full item counts.
  for (const auto &node : {one, four}) {
    ASSERT_EQ(node.children.size(), 2u);
    EXPECT_EQ(node.children[0].name, "square");
    EXPECT_EQ(node.children[1].name, "render");
    for (const auto &stage : node.children) EXPECT_EQ(stage.items, 100u);
    EXPECT_EQ(node.items, 200u); // 100 items x 2 stages as tasks
    EXPECT_GT(node.occupancy(), 0.0);
  }
}

TEST(TaskPoolNode, OneAndFourWorkersCoverAllIndices) {
  for (const usize threads : {usize{1}, usize{4}}) {
    std::vector<std::atomic<int>> hits(500);
    TaskPool pool("hit-counter");
    PipeOptions options;
    options.threads = threads;
    options.registerStats = false;
    const NodeStats s = pool.run(
        500, [&](usize i) { hits[i].fetch_add(1); }, options);
    for (usize i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(s.items, 500u);
    EXPECT_EQ(s.name, "hit-counter");
    EXPECT_GT(s.wallMs, 0.0);
  }
}

TEST(PipelineStats, RegistryDrainsOnce) {
  (void)drainPipelineStats(); // clear anything earlier tests registered
  TaskPool pool("registered-node");
  PipeOptions options;
  options.threads = 2;
  (void)pool.run(10, [](usize) {}, options);
  const auto drained = drainPipelineStats();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].name, "registered-node");
  EXPECT_TRUE(drainPipelineStats().empty());
}
