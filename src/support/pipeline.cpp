#include "support/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "support/deque.hpp"

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
      row->steals += stats.steals;
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

// ---------------------------------------------------------------------------
// StreamRuntime

using Task = std::function<void()>;

struct StreamRuntime::Impl {
  std::string name;
  usize workers = 1;
  std::vector<std::unique_ptr<WorkStealingDeque<Task>>> deques;
  WorkStealingDeque<Task> inject; // FIFO: pushBottom in, stealTop out

  std::mutex mutex; // guards pending, spawns, errors, and the flushed counters
  std::condition_variable wake;
  usize pending = 0;
  /// Wake epoch of idle workers: bumped under `mutex` after each spawn's
  /// push; atomic so a worker reads it before a scan without the lock.
  std::atomic<u64> spawns{0};
  std::vector<std::exception_ptr> errors;
  u64 busyNs = 0;
  usize items = 0;
  u64 wallNs = 0;
};

namespace {

/// Which runtime (and worker slot) the current thread is draining, so that
/// spawn() from inside a task lands on the worker's own deque. A stack
/// discipline (save/restore) keeps nested runtimes correct.
struct WorkerContext {
  StreamRuntime::Impl *impl = nullptr;
  usize index = 0;
};
thread_local WorkerContext tlWorker;

void workerLoop(const std::shared_ptr<StreamRuntime::Impl> &impl, usize index) {
  const WorkerContext saved = tlWorker;
  tlWorker = {impl.get(), index};

  auto &own = *impl->deques[index];
  u64 localBusyNs = 0;
  usize localItems = 0;

  while (true) {
    // Read before the scan: a task pushed after the scan missed it has
    // moved the epoch by the time this worker checks it under the mutex.
    const u64 epoch = impl->spawns.load();
    std::optional<Task> task = own.popBottom();
    if (!task) {
      for (usize k = 1; k < impl->workers && !task; ++k)
        task = impl->deques[(index + k) % impl->workers]->stealTop();
    }
    if (!task) task = impl->inject.stealTop();

    if (task) {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        (*task)();
      } catch (...) {
        const std::lock_guard lock(impl->mutex);
        impl->errors.push_back(std::current_exception());
      }
      localBusyNs += static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count());
      ++localItems;
      bool finished = false;
      {
        const std::lock_guard lock(impl->mutex);
        impl->busyNs += std::exchange(localBusyNs, 0);
        impl->items += std::exchange(localItems, 0);
        finished = --impl->pending == 0;
      }
      if (finished) impl->wake.notify_all();
    } else {
      std::unique_lock lock(impl->mutex);
      impl->wake.wait(lock, [&] { return impl->pending == 0 || impl->spawns != epoch; });
      if (impl->pending == 0) break;
    }
  }

  tlWorker = saved;
}

} // namespace

StreamRuntime::StreamRuntime(std::string name, usize threads) : impl_(std::make_shared<Impl>()) {
  impl_->name = std::move(name);
  impl_->workers = std::min(effectiveThreadCount(threads), sharedPool().threadCount() + 1);
  if (impl_->workers == 0) impl_->workers = 1;
  impl_->deques.reserve(impl_->workers);
  for (usize i = 0; i < impl_->workers; ++i)
    impl_->deques.push_back(std::make_unique<WorkStealingDeque<Task>>());
}

StreamRuntime::~StreamRuntime() = default;

void StreamRuntime::spawn(Task task) {
  {
    const std::lock_guard lock(impl_->mutex);
    ++impl_->pending;
  }
  if (tlWorker.impl == impl_.get()) {
    impl_->deques[tlWorker.index]->pushBottom(std::move(task));
  } else {
    impl_->inject.pushBottom(std::move(task));
  }
  {
    const std::lock_guard lock(impl_->mutex);
    ++impl_->spawns;
  }
  impl_->wake.notify_one();
}

void StreamRuntime::run() {
  const auto wallStart = std::chrono::steady_clock::now();
  // Helpers are borrowed, not owned: they capture the shared Impl, drain
  // until the graph is empty, and return to the pool. run() never joins a
  // specific thread, so a saturated pool degrades to the caller draining
  // everything alone — never to a deadlock.
  for (usize w = 1; w < impl_->workers; ++w) {
    sharedPool().submit([impl = impl_, w] { workerLoop(impl, w); });
  }
  workerLoop(impl_, 0);
  impl_->wallNs = static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - wallStart)
                                       .count());

  std::exception_ptr first;
  {
    const std::lock_guard lock(impl_->mutex);
    if (!impl_->errors.empty()) {
      first = impl_->errors.front();
      noteSuppressedErrors(impl_->errors.size() - 1);
      impl_->errors.clear();
    }
  }
  if (first) std::rethrow_exception(first);
}

usize StreamRuntime::workerCount() const { return impl_->workers; }

NodeStats StreamRuntime::stats() const {
  NodeStats s;
  s.name = impl_->name;
  s.workers = impl_->workers;
  {
    const std::lock_guard lock(impl_->mutex);
    s.items = impl_->items;
    s.busyMs = static_cast<double>(impl_->busyNs) / 1e6;
    s.wallMs = static_cast<double>(impl_->wallNs) / 1e6;
  }
  // Taking work off the injection deque is not a steal; its depth counts.
  for (const auto &d : impl_->deques) {
    s.steals += d->stolenCount();
    if (d->maxDepth() > s.maxQueueDepth) s.maxQueueDepth = d->maxDepth();
  }
  if (impl_->inject.maxDepth() > s.maxQueueDepth) s.maxQueueDepth = impl_->inject.maxDepth();
  return s;
}

} // namespace sv
