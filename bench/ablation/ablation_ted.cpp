// TED algorithm ablation (google-benchmark): Zhang–Shasha vs the
// APTED/RTED-style per-subtree-pair path strategy on random trees,
// adversarial comb shapes and real corpus trees — the memory/runtime
// concern the paper's future-work section raises.
#include <benchmark/benchmark.h>

#include <map>
#include <random>
#include <string>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "tree/ted.hpp"
#include "tree/tedengine.hpp"

using namespace sv;
using namespace sv::tree;

namespace {

Tree randomTree(u32 seed, usize n) {
  std::mt19937 rng(seed);
  static const char *labels[] = {"Fn", "Call", "If", "For", "Decl", "BinOp", "Ref", "Lit"};
  auto t = Tree::leaf(labels[rng() % 8]);
  for (usize i = 1; i < n; ++i) t.addChild(static_cast<NodeId>(rng() % t.size()), labels[rng() % 8]);
  return t;
}

Tree comb(usize n, bool left) {
  auto t = Tree::leaf("n");
  NodeId cur = 0;
  for (usize i = 0; i < n; ++i) {
    if (left) {
      const auto inner = t.addChild(cur, "n");
      t.addChild(cur, "leaf");
      cur = inner;
    } else {
      t.addChild(cur, "leaf");
      cur = t.addChild(cur, "n");
    }
  }
  return t;
}

const Tree &corpusTree(const std::string &model) {
  static std::map<std::string, Tree> cache;
  const auto it = cache.find(model);
  if (it != cache.end()) return it->second;
  const auto dbv = db::index(corpus::make("tealeaf", model)).db;
  return cache.emplace(model, dbv.units[1].tsem).first->second;
}

void BM_TedRandom(benchmark::State &state, TedAlgo algo) {
  const auto n = static_cast<usize>(state.range(0));
  const auto a = randomTree(1, n);
  const auto b = randomTree(2, n);
  TedOptions opts;
  opts.algo = algo;
  for (auto _ : state) benchmark::DoNotOptimize(ted(a, b, opts));
  state.SetComplexityN(state.range(0));
}

void BM_TedCombs(benchmark::State &state, TedAlgo algo) {
  const auto n = static_cast<usize>(state.range(0));
  const auto a = comb(n, true);
  const auto b = comb(n, false);
  TedOptions opts;
  opts.algo = algo;
  for (auto _ : state) benchmark::DoNotOptimize(ted(a, b, opts));
}

void BM_TedCorpus(benchmark::State &state, TedAlgo algo) {
  const auto &a = corpusTree("serial");
  const auto &b = corpusTree("sycl-acc");
  TedOptions opts;
  opts.algo = algo;
  for (auto _ : state) benchmark::DoNotOptimize(ted(a, b, opts));
}

/// Shared-view engine on the same corpus pair. `warm == false` clears the
/// engine every iteration (view build + DP, no memo); `warm == true` shows
/// the steady-state replay cost the divergence matrices see for the
/// reverse direction of every pair.
void BM_TedCorpusEngine(benchmark::State &state, bool warm) {
  const auto &a = corpusTree("serial");
  const auto &b = corpusTree("sycl-acc");
  TedEngine engine;
  for (auto _ : state) {
    if (!warm) engine.clear();
    benchmark::DoNotOptimize(engine.ted(a, b));
  }
}

/// The uncached Apted pipeline split into its phases, with the
/// per-strategy subproblem histogram exported as counters: how much
/// forest-DP work each PathKind executed, and what the whole-tree
/// decompositions would have cost instead.
void BM_TedAptedPhases(benchmark::State &state) {
  const auto n = static_cast<usize>(state.range(0));
  const auto a = randomTree(1, n);
  const auto b = randomTree(2, n);
  apted::RunCounters rc;
  for (auto _ : state) {
    const auto ia = apted::buildIndex(a);
    const auto ib = apted::buildIndex(b);
    const auto strat = apted::computeStrategy(ia, ib);
    rc = {};
    benchmark::DoNotOptimize(apted::run(ia, ib, strat, {}, /*reuseBlocks=*/false, &rc));
  }
  const auto ia = apted::buildIndex(a);
  const auto ib = apted::buildIndex(b);
  const auto strat = apted::computeStrategy(ia, ib);
  state.counters["strategy_cost"] = static_cast<double>(strat.cost);
  state.counters["whole_left_cost"] = static_cast<double>(ia.krSumLeft[ia.n] * ib.krSumLeft[ib.n]);
  state.counters["whole_right_cost"] =
      static_cast<double>(ia.krSumRight[ia.n] * ib.krSumRight[ib.n]);
  for (usize k = 0; k < 4; ++k) {
    state.counters[std::string("kernels_") + apted::pathKindName(static_cast<apted::PathKind>(k))] =
        static_cast<double>(rc.kernels[k]);
    state.counters[std::string("cells_") + apted::pathKindName(static_cast<apted::PathKind>(k))] =
        static_cast<double>(rc.subproblems[k]);
  }
  state.SetComplexityN(state.range(0));
}

} // namespace

BENCHMARK_CAPTURE(BM_TedRandom, zhang_shasha, TedAlgo::ZhangShasha)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity();
BENCHMARK_CAPTURE(BM_TedRandom, apted, TedAlgo::Apted)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity();
BENCHMARK_CAPTURE(BM_TedCombs, zhang_shasha, TedAlgo::ZhangShasha)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_TedCombs, apted, TedAlgo::Apted)->Arg(128)->Arg(256);
BENCHMARK_CAPTURE(BM_TedCorpus, zhang_shasha, TedAlgo::ZhangShasha);
BENCHMARK_CAPTURE(BM_TedCorpus, apted, TedAlgo::Apted);
BENCHMARK_CAPTURE(BM_TedCorpusEngine, engine_cold, false);
BENCHMARK_CAPTURE(BM_TedCorpusEngine, engine_warm, true);
BENCHMARK(BM_TedAptedPhases)->RangeMultiplier(2)->Range(64, 512)->Complexity();

BENCHMARK_MAIN();
