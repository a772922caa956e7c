#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "support/pipeline.hpp"

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
  try {
    for (usize i = 0; i < n; ++i) workers_.emplace_back([this] { workerLoop(); });
  } catch (...) {
    stop(); // a joinable std::thread destroyed by the unwinding would terminate
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
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
  }
  taskReady_.notify_one();
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
    task();
  }
}

// ---------------------------------------------------------------------------
// Worker counts and parallelFor

usize resolveThreadCount(usize explicitThreads, const char *envValue, usize hardware) {
  usize n = explicitThreads;
  if (n == 0 && envValue != nullptr) {
    // Digits only, as cli::parseU64: from_chars takes no sign or whitespace
    // for an unsigned type and reports a value past u64 as out of range.
    const char *end = envValue + std::strlen(envValue);
    u64 parsed = 0;
    const auto [ptr, ec] = std::from_chars(envValue, end, parsed);
    if (ec == std::errc{} && ptr == end) n = static_cast<usize>(parsed);
  }
  if (n == 0) n = hardware != 0 ? hardware : 1;
  return std::min(n, kMaxThreads);
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

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

/// One parallelFor loop of n >= 2 items, drained by the caller and its
/// helpers. Helpers hold it through a shared_ptr: one that the pool starts
/// after the caller returned finds every index claimed and leaves without
/// reading `body`, which lives in the caller's frame.
struct Loop {
  Loop(usize items, const std::function<void(usize)> &fn) : n(items), body(fn) {}

  const usize n;
  const std::function<void(usize)> &body; // read only after claiming an index < n
  std::atomic<usize> next{0};

  std::mutex mutex; // guards everything below
  std::condition_variable finished;
  usize done = 0;
  double busyMs = 0;
  usize failures = 0;
  usize lowestFailure = 0;
  std::exception_ptr error; // lowestFailure's exception
};

/// Claim and run indices until none is left, then fold this drainer's items
/// and busy time into the loop.
void drain(Loop &loop) {
  usize items = 0;
  double busyMs = 0;
  for (usize i = loop.next.fetch_add(1); i < loop.n; i = loop.next.fetch_add(1)) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      loop.body(i);
    } catch (...) {
      const std::lock_guard lock(loop.mutex);
      if (loop.failures++ == 0 || i < loop.lowestFailure) {
        loop.lowestFailure = i;
        loop.error = std::current_exception();
      }
    }
    busyMs += msSince(t0);
    ++items;
  }
  if (items == 0) return;
  bool last = false;
  {
    const std::lock_guard lock(loop.mutex);
    loop.busyMs += busyMs;
    last = (loop.done += items) == loop.n;
  }
  if (last) loop.finished.notify_all();
}

} // namespace

void parallelFor(usize n, const std::function<void(usize)> &body, usize threads,
                 std::string name) {
  const auto t0 = std::chrono::steady_clock::now();
  if (n <= 1) { // nothing to share: skip the helpers, keep the row
    NodeStats s{.name = std::move(name), .workers = 1, .items = n};
    std::exception_ptr error;
    try {
      if (n == 1) body(0);
    } catch (...) {
      error = std::current_exception();
    }
    s.busyMs = s.wallMs = msSince(t0);
    registerPipelineStats(std::move(s));
    if (error) std::rethrow_exception(error);
    return;
  }
  const usize workers =
      std::min({effectiveThreadCount(threads), sharedPool().threadCount() + 1, n});
  const auto loop = std::make_shared<Loop>(n, body);
  for (usize w = 1; w < workers; ++w) sharedPool().submit([loop] { drain(*loop); });
  drain(*loop);

  NodeStats s{.name = std::move(name), .workers = workers, .items = n, .maxQueueDepth = n};
  std::exception_ptr error;
  {
    std::unique_lock lock(loop->mutex);
    loop->finished.wait(lock, [&] { return loop->done == n; });
    s.busyMs = loop->busyMs;
    if (loop->error) {
      error = loop->error;
      noteSuppressedErrors(loop->failures - 1);
    }
  }
  s.wallMs = msSince(t0);
  registerPipelineStats(std::move(s));
  if (error) std::rethrow_exception(error);
}

} // namespace sv
