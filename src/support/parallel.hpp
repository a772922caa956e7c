// A cache-friendly thread pool plus parallel_for / parallel_map helpers.
// The pairwise TED computations over the cartesian product of models
// (Section V-A) are embarrassingly parallel and dominated by a few large
// pairs, so we use dynamic chunking (atomic fetch-add over blocks) rather
// than static partitioning.
//
// `parallelFor` routes through one process-wide, lazily-constructed pool —
// spawning and joining fresh threads on every `buildMatrix`/`indexApp` call
// was measurable on small matrices. The pool size comes from, in order of
// precedence: the per-call `threads` argument, `configureThreads` (the
// `svale --threads` flag), the `SV_THREADS` environment variable, and
// hardware_concurrency.
//
// Nested parallelFor calls are fully supported: each call owns a shared
// heap state that its helper tasks drain cooperatively, the caller always
// participates, and every claimed index is finished by the thread that
// claimed it — so a nested call can only ever wait on threads that are
// actively executing, never on a queue slot held by its own ancestors.
// (The old implementation degraded nested calls to a serial loop.)
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "support/common.hpp"

namespace sv {

/// Exceptions a parallel construct could not rethrow (everything after the
/// first): counted process-wide and surfaced by `svale --pipeline-stats`.
[[nodiscard]] usize suppressedErrorCount();
void noteSuppressedErrors(usize n);

/// Fixed-size thread pool. Tasks are void() closures; exceptions thrown by
/// a task are captured — wait() rethrows the first and counts the rest via
/// noteSuppressedErrors(). wait() covers *all* tasks, not just the
/// caller's.
class ThreadPool {
public:
  /// `threads` == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(usize threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueue a task; safe from any thread.
  void submit(std::function<void()> task);

  /// Block until the pool is fully idle (zero queued or running tasks from
  /// *any* submitter), then rethrow the first captured task exception.
  void wait();

  [[nodiscard]] usize threadCount() const { return workers_.size(); }

private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable idle_;
  usize pending_ = 0; // queued + running
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
};

/// The process-wide pool behind `parallelFor`, built on first use. Exposed
/// for tests and for callers that want to submit long-lived work directly.
[[nodiscard]] ThreadPool &sharedPool();

/// Worker-count resolution used by the shared pool, exposed pure for tests:
/// a nonzero `explicitThreads` wins, else a positive integer in `envValue`
/// (the content of SV_THREADS; nullptr / garbage / "0" are ignored), else
/// `hardware` (floored at 1).
[[nodiscard]] usize resolveThreadCount(usize explicitThreads, const char *envValue, usize hardware);

/// Process-wide default worker count for `parallelFor` (0 restores the
/// SV_THREADS / hardware default). Takes effect immediately; if the shared
/// pool is already built, a value above its size is capped to it.
void configureThreads(usize threads);

/// The worker count a `parallelFor(…, threads)` call would resolve to,
/// before capping by the pool size: per-call argument, then
/// configureThreads, then SV_THREADS, then hardware_concurrency.
[[nodiscard]] usize effectiveThreadCount(usize threads = 0);

/// Run `body(i)` for i in [0, n) on the shared pool with dynamic chunking.
/// The calling thread participates as one of the workers and each call has
/// its own completion state, so concurrent and *nested* calls are safe:
/// helper tasks are cancellable (a helper that arrives after the loop
/// drained just returns), so the caller never depends on pool capacity for
/// progress. Runs serially when n < 2 or one worker is resolved. The first
/// exception thrown by `body` is rethrown after the loop completes; the
/// rest are counted via noteSuppressedErrors().
void parallelFor(usize n, const std::function<void(usize)> &body, usize threads = 0);

/// Parallel map over an index range producing a vector of results. `f` must
/// be safe to call concurrently; results land at their own index, so no
/// synchronisation of the output is required.
template <typename F> [[nodiscard]] auto parallelMap(usize n, F &&f, usize threads = 0) {
  using R = std::invoke_result_t<F, usize>;
  std::vector<R> out(n);
  parallelFor(
      n, [&](usize i) { out[i] = f(i); }, threads);
  return out;
}

} // namespace sv
