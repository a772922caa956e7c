#include "support/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>

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

void parallelFor(usize n, const std::function<void(usize)> &body, usize threads,
                 std::string name) {
  if (n <= 1) { // nothing to share: skip the runtime's start-up, keep the row
    NodeStats s{.name = std::move(name), .workers = 1, .items = n};
    const auto t0 = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
      if (n == 1) body(0);
    } catch (...) {
      error = std::current_exception();
    }
    s.busyMs = s.wallMs =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    registerPipelineStats(std::move(s));
    if (error) std::rethrow_exception(error);
    return;
  }
  StreamRuntime rt(std::move(name), threads);
  for (usize i = 0; i < n; ++i) rt.spawn([&body, i] { body(i); });
  rt.run();
  registerPipelineStats(rt.stats());
}

} // namespace sv
