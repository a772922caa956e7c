// The three workloads. Each builds its inputs from the seed in setup(),
// runs one pass against a PassCtx (traced or not), and can regenerate its
// known answers through the uncached Zhang–Shasha reference path.
#pragma once

#include <memory>

#include "common.hpp"
#include "tree/ted.hpp"

namespace e2e {

/// The reference TED configuration the known answers are generated with:
/// never the engine under test.
[[nodiscard]] inline sv::tree::TedOptions referenceTed() {
  sv::tree::TedOptions ted;
  ted.algo = sv::tree::TedAlgo::ZhangShasha;
  ted.useCache = false;
  return ted;
}

class Workload {
public:
  virtual ~Workload() = default;

  /// Load the known answers from `answersDir` and build the inputs for
  /// `seed`. Timed (setup_s) and repeated; each call replaces the last.
  virtual void setup(const std::string &answersDir, u64 seed) = 0;

  /// One pass over the inputs. With ctx.traced() the layer calls go through
  /// e2e::layers and spans are recorded.
  virtual void pass(PassCtx &ctx) = 0;

  /// The op-latency percentile reported as op_tail_ms: the highest of p80,
  /// p90, p95 and p99 that keeps at least ten samples beyond it at the
  /// minimum pass count.
  [[nodiscard]] virtual double tailPercentile() const { return 0.90; }

  /// Counters gathered after the traced pass, outside its timing.
  virtual void traceCounters(PassCtx &) {}

  /// Recompute every known answer with the reference path into `out`.
  virtual void generate(Answers &out) = 0;

  [[nodiscard]] const Answers &answers() const { return answers_; }

protected:
  Answers answers_;
};

[[nodiscard]] std::unique_ptr<Workload> makeDeck();
[[nodiscard]] std::unique_ptr<Workload> makeLintStream();
[[nodiscard]] std::unique_ptr<Workload> makeQueryMix();

} // namespace e2e
