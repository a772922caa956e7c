// The process-wide thread supply and the flat parallel for-each. The
// pairwise TED computations over the cartesian product of models
// (Section V-A) are embarrassingly parallel and dominated by a few large
// pairs, so every index is its own item and each worker claims the next
// unclaimed index (dynamic scheduling) rather than a static partition.
//
// `parallelFor` is the one scheduler: a loop of n items is one shared
// counter that the caller and up to `workers - 1` helpers lent by
// `sharedPool()` claim indices from, lowest first. The worker count comes
// from, in order of precedence: the per-call `threads` argument,
// `configureThreads` (the `svale --threads` flag), the `SV_THREADS`
// environment variable, and hardware_concurrency, clamped to kMaxThreads.
//
// Nested parallelFor calls are safe: the caller always drains its own
// loop, and helpers that arrive after every index was claimed just
// return, so a nested call never waits on a pool slot held by its
// ancestors.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "support/common.hpp"

namespace sv {

/// Exceptions a parallel construct could not rethrow (every one but the
/// lowest failing index's): counted process-wide and surfaced by `svale
/// --pipeline-stats`.
[[nodiscard]] usize suppressedErrorCount();
void noteSuppressedErrors(usize n);

/// Fixed-size thread pool running void() closures in FIFO order. Tasks must
/// not throw: the pool's one submitter, parallelFor, catches every body
/// exception inside its claim loop.
class ThreadPool {
public:
  /// `threads` == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(usize threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueue a task; safe from any thread.
  void submit(std::function<void()> task);

  [[nodiscard]] usize threadCount() const { return workers_.size(); }

private:
  void workerLoop();
  /// Wake every worker, let them finish the queue, and join them.
  void stop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  bool stopping_ = false;
};

/// The process-wide pool that lends parallelFor its helper workers, built
/// on first use with effectiveThreadCount() threads.
[[nodiscard]] ThreadPool &sharedPool();

/// Ceiling on any resolved worker count: the pool builds one thread per
/// worker up front, so a hostile `--threads` or SV_THREADS must not be able
/// to ask for millions of them.
inline constexpr usize kMaxThreads = 512;

/// Worker-count resolution used by the shared pool, exposed pure for tests:
/// a nonzero `explicitThreads` wins, else a positive decimal integer in
/// `envValue` (the content of SV_THREADS, digits only; nullptr, a sign,
/// whitespace, garbage, "0" or a value past u64 are ignored), else
/// `hardware` (floored at 1). The result is clamped to kMaxThreads.
[[nodiscard]] usize resolveThreadCount(usize explicitThreads, const char *envValue, usize hardware);

/// Process-wide default worker count (0 restores the SV_THREADS / hardware
/// default). Takes effect immediately; if the shared pool is already built,
/// a value above its size is capped to it.
void configureThreads(usize threads);

/// The worker count a `parallelFor(…, threads)` call would resolve to,
/// before capping by the pool size: per-call argument, then
/// configureThreads, then SV_THREADS, then hardware_concurrency.
[[nodiscard]] usize effectiveThreadCount(usize threads = 0);

/// Run `body(i)` for i in [0, n), each index claimed once from a shared
/// counter in increasing order by the calling thread and up to
/// min(effectiveThreadCount(threads), pool size + 1, n) - 1 pool helpers, and
/// register the node's NodeStats under `name`. Returns once every index has
/// finished. Every index runs even if some throw; the exception of the
/// lowest failing index is rethrown (whatever the schedule) and the rest are
/// counted via noteSuppressedErrors(). With n <= 1 there is nothing to
/// share: the body runs inline on the caller, the row still registers
/// (workers 1, wall = busy = the body's time), and the body's exception
/// propagates unchanged.
void parallelFor(usize n, const std::function<void(usize)> &body, usize threads = 0,
                 std::string name = "parallel-for");

} // namespace sv
