// Streaming task runtime, the one scheduler behind every parallel
// operation. There is one kind of node: parallelFor (parallel.hpp), a flat
// for-each that spawns one task per index. Indexing, lint, deps and range
// are each one parallelFor over their units whose task runs that unit's
// stages in sequence, so each unit runs depth-first on one worker and a
// slow unit never stalls the others at a phase barrier.
//
// Every node runs on a StreamRuntime: the caller drains as worker 0, helper
// workers are borrowed from sharedPool() (cancellable — a saturated pool
// just means the caller does all the work itself; nothing joins on a
// specific thread), each worker owns a WorkStealingDeque (deque.hpp) and
// steals from its peers when dry, and spawns from outside the worker set
// land on one more deque used FIFO as the injection channel. An idle worker
// sleeps, with no timeout, until the graph drains or a spawn moves the
// runtime's spawn epoch past the value it read before its last scan.
//
// Determinism contract: results land in slots indexed by item, never in
// completion order, so output is byte-identical at any worker count (a
// 1-worker run is the reference). The one schedule-dependent output is
// top-k's filter counters above one worker (metrics/query.hpp). Every node
// self-reports throughput, occupancy, queue depth and steal counts as one
// NodeStats row (`svale --pipeline-stats`), following the self-instrumented
// pattern-node design of the Extra-P compositional performance analyzer.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "support/parallel.hpp"

namespace sv {

/// Self-reported measurements of one node. Rendered by `svale
/// --pipeline-stats`.
struct NodeStats {
  std::string name;
  usize workers = 0;       ///< workers the node ran with (incl. the caller)
  usize items = 0;         ///< tasks executed
  usize steals = 0;        ///< tasks taken from another worker's deque
  usize maxQueueDepth = 0; ///< high-water mark across deques + injection
  double busyMs = 0;       ///< summed task execution time across workers
  double wallMs = 0;       ///< wall time of the node's run()

  /// Items completed per wall-clock second.
  [[nodiscard]] double throughput() const;
  /// busy / (wall * workers): 1.0 = every worker busy the whole run.
  [[nodiscard]] double occupancy() const;
  [[nodiscard]] std::string renderText(usize indent = 0) const;
};

/// Rows the stats registry holds before it starts folding.
inline constexpr usize kMaxPipelineStatsRows = 4096;

/// Process-wide stats registry. Every node appends its NodeStats after each
/// run; `svale --pipeline-stats` drains and renders one row per node after
/// the command body finishes. Nothing has to drain it: once it holds
/// kMaxPipelineStatsRows rows, a new row folds into the latest row of the
/// same name (items, busy, wall and steals summed; queue depth and workers
/// maxed), so totals stay exact and only a name not seen yet adds a row.
void registerPipelineStats(NodeStats stats);
[[nodiscard]] std::vector<NodeStats> drainPipelineStats();

/// The execution substrate of parallelFor. Usage: construct, spawn
/// seed tasks, call run() once; run() returns when every task — including
/// tasks spawned transitively from inside tasks — has finished, and
/// rethrows the first task exception (the rest are counted, reported via
/// suppressedErrorCount()). A task running on a worker spawns onto its own
/// deque (LIFO continuation); any other thread spawns onto the injection
/// deque, and each spawn wakes one sleeping worker. Helper workers are
/// borrowed from sharedPool() and give themselves back the moment the
/// graph drains.
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

} // namespace sv
