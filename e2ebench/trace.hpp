// Span recorder for the traced run. Spans are recorded from outside the
// library: the benchmark opens one around each call it makes into a layer's
// public functions, so no tracing code lives in src/. Spans nest (each keeps
// its parent's index), stay in memory during the pass, and are written out
// once the run ends. The recorder is single-threaded by design: the traced
// run executes with one worker.
//
// Allocation counting: this binary replaces the global operator new, which
// bumps a thread-local counter; a span records the counter at open and
// close, so allocations are attributed per span (and per layer through self
// counts, children subtracted).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace e2e {

using sv::u64;
using sv::usize;

struct Span {
  std::string name;  ///< layer metric stem, e.g. "frontend.parse", "phase.index"
  usize parent = 0;  ///< index into the span list; Tracer::kNoParent for roots
  double startMs = 0;
  double endMs = 0;
  u64 allocs = 0;    ///< allocations between open and close, children included
};

class Tracer {
public:
  static constexpr usize kNoParent = ~usize{0};

  /// Start recording (drops earlier spans); the clock origin is now.
  void start();
  void stop() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  usize open(const char *name);
  void close(usize id);

  [[nodiscard]] const std::vector<Span> &spans() const { return spans_; }

  /// Self time (ms) and self allocations per span name: each span's own
  /// duration minus its direct children's.
  struct Self {
    double ms = 0;
    u64 allocs = 0;
    u64 calls = 0;
  };
  [[nodiscard]] std::map<std::string, Self> selfByName() const;

private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<usize> stack_;
  bool enabled_ = false;
};

/// The process-wide recorder.
Tracer &tracer();

/// RAII span; a no-op while the recorder is off.
class Scope {
public:
  explicit Scope(const char *name) : id_(tracer().enabled() ? tracer().open(name) : kOff) {}
  ~Scope() {
    if (id_ != kOff) tracer().close(id_);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  static constexpr usize kOff = ~usize{0};
  usize id_;
};

/// Time `f()` under a span and return its result.
template <typename F> decltype(auto) traced(const char *name, F &&f) {
  Scope s(name);
  return f();
}

} // namespace e2e
