// The per-worker WorkStealingDeque behind the streaming runtime
// (pipeline.hpp); a StreamRuntime also uses one as its FIFO injection
// channel. The critical sections are a handful of pointer moves — the work
// items carried (parse a unit, run one TED pair) are orders of magnitude
// heavier than the lock, so a short mutex beats a lock-free design that
// would be much harder to prove correct under TSan.
//
// The deque counts its own traffic (pushes, pops, steals, high-water
// depth); the runtime folds those counters into the NodeStats tree that
// `svale --pipeline-stats` renders.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "support/common.hpp"

namespace sv {

/// Per-worker deque for the streaming runtime. The owning worker pushes and
/// pops at the bottom (LIFO — freshly spawned tasks run next, keeping the
/// worker's data cache-hot and the in-flight set small); idle workers steal from the top (FIFO — they take the oldest,
/// coarsest work). Any thread may call any method; ownership is a usage
/// convention, not a safety requirement.
template <typename T> class WorkStealingDeque {
public:
  WorkStealingDeque() = default;
  WorkStealingDeque(const WorkStealingDeque &) = delete;
  WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

  void pushBottom(T item) {
    const std::lock_guard lock(mutex_);
    items_.push_back(std::move(item));
    ++pushed_;
    if (items_.size() > maxDepth_) maxDepth_ = items_.size();
  }

  /// Owner's pop: newest item (LIFO).
  std::optional<T> popBottom() {
    const std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out{std::move(items_.back())};
    items_.pop_back();
    ++popped_;
    return out;
  }

  /// Thief's pop: oldest item (FIFO).
  std::optional<T> stealTop() {
    const std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out{std::move(items_.front())};
    items_.pop_front();
    ++stolen_;
    return out;
  }

  [[nodiscard]] usize size() const {
    const std::lock_guard lock(mutex_);
    return items_.size();
  }

  /// Lifetime counters. pushedCount == poppedCount + stolenCount once the
  /// deque is drained — the invariant the stress test pins down.
  [[nodiscard]] usize pushedCount() const {
    const std::lock_guard lock(mutex_);
    return pushed_;
  }
  [[nodiscard]] usize poppedCount() const {
    const std::lock_guard lock(mutex_);
    return popped_;
  }
  [[nodiscard]] usize stolenCount() const {
    const std::lock_guard lock(mutex_);
    return stolen_;
  }
  [[nodiscard]] usize maxDepth() const {
    const std::lock_guard lock(mutex_);
    return maxDepth_;
  }

private:
  mutable std::mutex mutex_;
  std::deque<T> items_;
  usize pushed_ = 0;
  usize popped_ = 0;
  usize stolen_ = 0;
  usize maxDepth_ = 0;
};

} // namespace sv
