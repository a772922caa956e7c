// Streaming task-graph runtime, the one scheduler behind every parallel
// operation. Work is expressed as composable pattern nodes:
//
//   Pipeline<Ts...>  typed stage chain; finishing stage k of item i
//                    immediately spawns stage k+1 of item i (LIFO on the
//                    owner's deque, so one item runs depth-first and stays
//                    cache-hot while other items stream behind it), so the
//                    slowest unit of one stage never stalls the others
//   parallelFor      flat for-each over n indices (parallel.hpp)
//
// All nodes run on a StreamRuntime: the caller drains as worker 0, helper
// workers are borrowed from sharedPool() (cancellable — a saturated pool
// just means the caller does all the work itself; nothing joins on a
// specific thread), each worker owns a WorkStealingDeque (deque.hpp) and
// steals from its peers when dry, and spawns from outside the worker set
// land on one more deque used FIFO as the injection channel.
//
// Determinism contract: results land in slots indexed by item, never in
// completion order, so output is byte-identical at any worker count (a
// 1-worker run is the reference). Every node self-reports throughput,
// occupancy, queue depth and steal counts into a NodeStats tree (`svale
// --pipeline-stats`), following the self-instrumented pattern-node design
// of the Extra-P compositional performance analyzer.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "support/common.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"

namespace sv {

/// Self-reported measurements of one pattern node (plus one child entry per
/// pipeline stage). Rendered by `svale --pipeline-stats`.
struct NodeStats {
  std::string name;
  usize workers = 0;       ///< workers the node ran with (incl. the caller)
  usize items = 0;         ///< tasks executed
  usize steals = 0;        ///< tasks taken from another worker's deque
  usize maxQueueDepth = 0; ///< high-water mark across deques + injection
  double busyMs = 0;       ///< summed task execution time across workers
  double wallMs = 0;       ///< wall time of the node's run()
  std::vector<NodeStats> children;

  /// Items completed per wall-clock second.
  [[nodiscard]] double throughput() const;
  /// busy / (wall * workers): 1.0 = every worker busy the whole run.
  [[nodiscard]] double occupancy() const;
  [[nodiscard]] json::Value toJson() const;
  [[nodiscard]] std::string renderText(usize indent = 0) const;
};

/// Process-wide stats registry. Every node appends its NodeStats after each
/// run; `svale --pipeline-stats` drains and renders the tree after the
/// command body finishes.
void registerPipelineStats(NodeStats stats);
[[nodiscard]] std::vector<NodeStats> drainPipelineStats();

/// The execution substrate of the streaming nodes. Usage: construct, spawn
/// seed tasks, call run() once; run() returns when every task — including
/// tasks spawned transitively from inside tasks — has finished, and
/// rethrows the first task exception (the rest are counted, reported via
/// suppressedErrorCount()). A task running on a worker spawns onto its own
/// deque (LIFO continuation); any other thread spawns onto the injection
/// deque. Helper workers are borrowed from sharedPool() and give
/// themselves back the moment the graph drains.
class StreamRuntime {
public:
  explicit StreamRuntime(std::string name, usize threads = 0);
  ~StreamRuntime();

  StreamRuntime(const StreamRuntime &) = delete;
  StreamRuntime &operator=(const StreamRuntime &) = delete;

  /// Enqueue a task; safe from any thread, including from inside a task.
  void spawn(std::function<void()> task);

  /// Drain the graph with the calling thread participating as worker 0.
  void run();

  [[nodiscard]] usize workerCount() const;
  /// Aggregated measurements; valid after run().
  [[nodiscard]] NodeStats stats() const;

  struct Impl; // opaque; public so the worker loop in pipeline.cpp can see it

private:
  std::shared_ptr<Impl> impl_;
};

/// Typed stage chain over item types Ts... (N+1 types = N stages). Stage K
/// maps Ts[K]&& → Ts[K+1] for one item; finishing stage K of item i spawns
/// stage K+1 of item i onto the worker's own deque. Outputs land in slots
/// indexed by item. Output types must be default-constructible and movable
/// (they sit in a pre-sized slot vector).
template <typename... Ts> class Pipeline {
  static_assert(sizeof...(Ts) >= 2, "Pipeline needs an input and an output type");

public:
  static constexpr usize kStageCount = sizeof...(Ts) - 1;
  template <usize K> using StageIn = std::tuple_element_t<K, std::tuple<Ts...>>;
  template <usize K> using StageOut = std::tuple_element_t<K + 1, std::tuple<Ts...>>;
  using In = StageIn<0>;
  using Out = std::tuple_element_t<kStageCount, std::tuple<Ts...>>;
  template <usize K> using StageFn = std::function<StageOut<K>(StageIn<K> &&, usize)>;

  explicit Pipeline(std::string name) : name_(std::move(name)) {}

  /// Install stage K. Every stage must be set before run().
  template <usize K> Pipeline &stage(std::string stageName, StageFn<K> fn) {
    static_assert(K < kStageCount);
    meta_[K].name = std::move(stageName);
    std::get<K>(fns_) = std::move(fn);
    return *this;
  }

  /// Run every item through all stages and register the node's NodeStats.
  /// `threads` resolves like parallelFor's (0 = configureThreads /
  /// SV_THREADS / cores).
  [[nodiscard]] std::vector<Out> run(std::vector<In> items, usize threads = 0) {
    for (auto &m : meta_) {
      m.busyNs.store(0, std::memory_order_relaxed);
      m.items.store(0, std::memory_order_relaxed);
    }
    const usize n = items.size();
    const auto wallStart = std::chrono::steady_clock::now();
    std::vector<Out> out(n);
    StreamRuntime rt(name_, threads);
    for (usize i = 0; i < n; ++i) {
      rt.spawn([this, &rt, &out, i, v = std::make_shared<In>(std::move(items[i]))]() mutable {
        execStage<0>(rt, std::move(*v), i, out);
      });
    }
    items.clear();
    rt.run();
    NodeStats node = rt.stats();
    node.wallMs = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                           wallStart)
                      .count();
    for (const auto &m : meta_) {
      NodeStats child;
      child.name = m.name;
      child.workers = node.workers;
      child.items = m.items.load(std::memory_order_relaxed);
      child.busyMs = static_cast<double>(m.busyNs.load(std::memory_order_relaxed)) / 1e6;
      child.wallMs = node.wallMs;
      node.children.push_back(std::move(child));
    }
    registerPipelineStats(std::move(node));
    return out;
  }

private:
  struct StageMeta {
    std::string name;
    std::atomic<u64> busyNs{0};
    std::atomic<usize> items{0};
  };

  template <usize... Is>
  static auto fnTupleHelper(std::index_sequence<Is...>)
      -> std::tuple<std::function<std::tuple_element_t<Is + 1, std::tuple<Ts...>>(
          std::tuple_element_t<Is, std::tuple<Ts...>> &&, usize)>...>;
  using FnTuple = decltype(fnTupleHelper(std::make_index_sequence<kStageCount>{}));

  template <usize K> StageOut<K> timedStage(StageIn<K> &&v, usize i) {
    const auto t0 = std::chrono::steady_clock::now();
    StageOut<K> next = std::get<K>(fns_)(std::move(v), i);
    meta_[K].busyNs.fetch_add(
        static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count()),
        std::memory_order_relaxed);
    meta_[K].items.fetch_add(1, std::memory_order_relaxed);
    return next;
  }

  template <usize K>
  void execStage(StreamRuntime &rt, StageIn<K> &&v, usize i, std::vector<Out> &out) {
    StageOut<K> next = timedStage<K>(std::move(v), i);
    if constexpr (K + 1 == kStageCount) {
      out[i] = std::move(next);
    } else {
      rt.spawn([this, &rt, &out, i, v2 = std::make_shared<StageOut<K>>(std::move(next))]() mutable {
        execStage<K + 1>(rt, std::move(*v2), i, out);
      });
    }
  }

  std::string name_;
  FnTuple fns_;
  std::array<StageMeta, kStageCount> meta_;
};

} // namespace sv
