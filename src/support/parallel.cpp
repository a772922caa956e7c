#include "support/parallel.hpp"

#include <cstdlib>
#include <string>

namespace sv {

namespace {

std::atomic<usize> gConfiguredThreads{0};
std::atomic<usize> gSuppressedErrors{0};

} // namespace

usize suppressedErrorCount() { return gSuppressedErrors.load(std::memory_order_relaxed); }

void noteSuppressedErrors(usize n) {
  if (n != 0) gSuppressedErrors.fetch_add(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(usize threads) {
  usize n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  workers_.reserve(n);
  for (usize i = 0; i < n; ++i) workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  taskReady_.notify_all();
  for (auto &w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++pending_;
  }
  taskReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
  if (!errors_.empty()) {
    const auto first = errors_.front();
    noteSuppressedErrors(errors_.size() - 1);
    errors_.clear();
    std::rethrow_exception(first);
  }
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      taskReady_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    try {
      task();
    } catch (...) {
      const std::lock_guard lock(mutex_);
      errors_.push_back(std::current_exception());
    }
    {
      const std::lock_guard lock(mutex_);
      --pending_;
      if (pending_ == 0) idle_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// parallelFor

usize resolveThreadCount(usize explicitThreads, const char *envValue, usize hardware) {
  if (explicitThreads != 0) return explicitThreads;
  if (envValue != nullptr) {
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(envValue, &end, 10);
    if (end != envValue && *end == '\0' && parsed > 0) return static_cast<usize>(parsed);
  }
  return hardware != 0 ? hardware : 1;
}

void configureThreads(usize threads) {
  gConfiguredThreads.store(threads, std::memory_order_relaxed);
}

usize effectiveThreadCount(usize threads) {
  return resolveThreadCount(threads != 0 ? threads
                                         : gConfiguredThreads.load(std::memory_order_relaxed),
                            std::getenv("SV_THREADS"), std::thread::hardware_concurrency());
}

ThreadPool &sharedPool() {
  static ThreadPool pool(effectiveThreadCount(0));
  return pool;
}

namespace {

/// Heap state shared between the caller and its helper tasks. Helpers keep
/// it alive via shared_ptr, so a helper that the pool only gets around to
/// running after the loop already drained finds next >= n and returns
/// without touching anything else — which is what makes nested calls safe:
/// nobody ever waits for a *queued* task, only for claimed indices, and
/// every claimed index is finished by the thread that claimed it.
struct ForState {
  std::function<void(usize)> body; // owned copy: helpers may outlive the call site
  usize n = 0;
  std::atomic<usize> next{0};
  std::atomic<usize> done{0};
  std::mutex mutex; // guards errors and the finished wait
  std::condition_variable finished;
  std::vector<std::exception_ptr> errors;
};

void drainForState(const std::shared_ptr<ForState> &st) {
  while (true) {
    const usize i = st->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st->n) return;
    try {
      st->body(i);
    } catch (...) {
      const std::lock_guard lock(st->mutex);
      st->errors.push_back(std::current_exception());
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->n) {
      const std::lock_guard lock(st->mutex);
      st->finished.notify_all();
    }
  }
}

} // namespace

void parallelFor(usize n, const std::function<void(usize)> &body, usize threads) {
  if (n == 0) return;
  const usize want = effectiveThreadCount(threads);
  if (want == 1 || n < 2) {
    for (usize i = 0; i < n; ++i) body(i);
    return;
  }

  // The caller drains alongside pool workers, so `want` workers means
  // want - 1 submitted helper tasks (capped by the pool size and by n).
  ThreadPool &pool = sharedPool();
  const usize workerCount = std::min({want, pool.threadCount() + 1, n});
  if (workerCount == 1) {
    for (usize i = 0; i < n; ++i) body(i);
    return;
  }

  auto st = std::make_shared<ForState>();
  st->body = body;
  st->n = n;
  for (usize w = 0; w + 1 < workerCount; ++w) {
    pool.submit([st] { drainForState(st); });
  }
  drainForState(st);

  {
    std::unique_lock lock(st->mutex);
    st->finished.wait(lock,
                      [&] { return st->done.load(std::memory_order_acquire) == st->n; });
  }
  // done == n means every body() call has returned, so errors is quiescent.
  if (!st->errors.empty()) {
    noteSuppressedErrors(st->errors.size() - 1);
    std::rethrow_exception(st->errors.front());
  }
}

} // namespace sv
