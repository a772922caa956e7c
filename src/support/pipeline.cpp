#include "support/pipeline.hpp"

#include <algorithm>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <utility>

namespace sv {

namespace {

std::mutex gStatsMutex;
std::vector<NodeStats> gStatsRegistry;

} // namespace

double NodeStats::throughput() const {
  return wallMs > 0 ? static_cast<double>(items) / (wallMs / 1000.0) : 0;
}

double NodeStats::occupancy() const {
  if (wallMs <= 0 || workers == 0) return 0;
  return busyMs / (wallMs * static_cast<double>(workers));
}

std::string NodeStats::renderText(usize indent) const {
  std::ostringstream out;
  out << std::string(indent * 2, ' ') << name;
  out << std::fixed << std::setprecision(1);
  out << "  items=" << items << " workers=" << workers << " occ=" << occupancy() * 100 << "%"
      << " steals=" << steals << " maxq=" << maxQueueDepth << " busy=" << busyMs
      << "ms wall=" << wallMs << "ms thr=" << throughput() << "/s\n";
  return out.str();
}

void registerPipelineStats(NodeStats stats) {
  const std::lock_guard lock(gStatsMutex);
  if (gStatsRegistry.size() >= kMaxPipelineStatsRows) {
    const auto row = std::find_if(gStatsRegistry.rbegin(), gStatsRegistry.rend(),
                                  [&](const NodeStats &r) { return r.name == stats.name; });
    if (row != gStatsRegistry.rend()) {
      row->items += stats.items;
      row->busyMs += stats.busyMs;
      row->wallMs += stats.wallMs;
      row->maxQueueDepth = std::max(row->maxQueueDepth, stats.maxQueueDepth);
      row->workers = std::max(row->workers, stats.workers);
      return;
    }
  }
  gStatsRegistry.push_back(std::move(stats));
}

std::vector<NodeStats> drainPipelineStats() {
  const std::lock_guard lock(gStatsMutex);
  return std::exchange(gStatsRegistry, {});
}

} // namespace sv
