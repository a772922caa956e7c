// Per-node measurements of the parallel runtime. There is one kind of node:
// parallelFor (parallel.hpp), a flat for-each whose workers claim indices
// from one shared counter. Indexing, lint, deps and range are each one
// parallelFor over their units whose item runs that unit's stages in
// sequence, so each unit runs depth-first on one worker and a slow unit
// never stalls the others at a phase barrier.
//
// Determinism contract: results land in slots indexed by item, never in
// completion order, so output is byte-identical at any worker count (a
// 1-worker run is the reference); a loop whose items throw rethrows the
// lowest failing index's exception. The one schedule-dependent output is
// top-k's filter counters above one worker (metrics/query.hpp). Every node
// self-reports throughput, occupancy and queue depth as one NodeStats row
// (`svale --pipeline-stats`), following the self-instrumented pattern-node
// design of the Extra-P compositional performance analyzer.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace sv {

/// Self-reported measurements of one node. Rendered by `svale
/// --pipeline-stats`.
struct NodeStats {
  std::string name;
  usize workers = 0;       ///< workers the node ran with (incl. the caller)
  usize items = 0;         ///< items executed
  usize steals = 0;        ///< always 0: workers share one index counter
  usize maxQueueDepth = 0; ///< items queued at the start (n; 0 when run inline)
  double busyMs = 0;       ///< summed item execution time across workers
  double wallMs = 0;       ///< wall time of the node

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
/// same name (items, busy and wall summed; queue depth and workers maxed),
/// so totals stay exact and only a name not seen yet adds a row.
void registerPipelineStats(NodeStats stats);
[[nodiscard]] std::vector<NodeStats> drainPipelineStats();

} // namespace sv
