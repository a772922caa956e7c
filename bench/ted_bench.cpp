// TED engine microbenchmark: times silvervale::divergenceMatrix (Apted)
// for Tsrc/Tsem/Tir on TeaLeaf and CloverLeaf with the shared-view engine
// on vs. off, and writes BENCH_ted.json (median of N >= 3 runs per
// configuration) so future PRs have a perf trajectory to compare against.
// The engine cache is cleared before every engine-on run, so the reported
// speedup is the cold, single-matrix win (view reuse across pairs, the
// symmetric pair memo, fingerprint short-circuits) — not warm-cache
// replay. Each cell also records the
// strategy-choice histogram (single-path kernels and forest-DP cells per
// PathKind) from the EngineStats counters.
//
// Usage: ted_bench [--runs N] [--out FILE] [--threads N] [--quick]
//   --quick restricts to TeaLeaf/Tsem (the acceptance-criteria cell).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "silvervale/silvervale.hpp"
#include "support/cliargs.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "tree/tedengine.hpp"

using namespace sv;

namespace {

double timeMatrixMs(const silvervale::IndexedApp &app, metrics::Metric metric,
                    const tree::TedOptions &ted) {
  if (ted.useCache) tree::TedEngine::global().clear(); // cold-cache measurement
  const auto start = std::chrono::steady_clock::now();
  const auto m = silvervale::divergenceMatrix(app, metric, {}, ted);
  const auto stop = std::chrono::steady_clock::now();
  // Consume the matrix so the compiler cannot elide the computation.
  volatile double sink = 0;
  for (const double v : m.values) sink = sink + v;
  (void)sink;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// One cell: engine off and on medians over `runs` repetitions.
json::Object benchCell(const silvervale::IndexedApp &app, metrics::Metric metric, usize runs,
                       double &offMsOut, double &onMsOut) {
  tree::TedOptions off;
  off.useCache = false;
  const tree::TedOptions on;
  std::vector<double> offMs, onMs;
  for (usize r = 0; r < runs; ++r) offMs.push_back(timeMatrixMs(app, metric, off));
  for (usize r = 0; r < runs; ++r) onMs.push_back(timeMatrixMs(app, metric, on));
  const double offMed = median(offMs);
  const double onMed = median(onMs);
  offMsOut = offMed;
  onMsOut = onMed;
  json::Object cell;
  cell.emplace("engine_off_ms", json::Value(offMed));
  cell.emplace("engine_on_ms", json::Value(onMed));
  cell.emplace("speedup", json::Value(onMed > 0 ? offMed / onMed : 0));
  return cell;
}

constexpr const char *kKindNames[4] = {"leftA", "rightA", "leftB", "rightB"};

/// Strategy histogram of the engine's last (cold) run: which path
/// kinds the strategy DP picked and how much forest-DP work each executed.
json::Object strategyHistogram(const tree::EngineStats &s) {
  json::Object kernels, cells;
  for (usize k = 0; k < 4; ++k) {
    kernels.emplace(kKindNames[k], json::Value(s.spfKernels[k]));
    cells.emplace(kKindNames[k], json::Value(s.spfSubproblems[k]));
  }
  json::Object h;
  h.emplace("kernels", json::Value(std::move(kernels)));
  h.emplace("subproblems", json::Value(std::move(cells)));
  h.emplace("strategy_misses", json::Value(s.strategyMisses));
  h.emplace("subtree_block_hits", json::Value(s.subtreeBlockHits));
  return h;
}

} // namespace

int main(int argc, char **argv) {
  usize runs = 3;
  std::string outFile = "BENCH_ted.json";
  bool quick = false;
  try {
    const cli::FlagSpec spec{{"runs", "out", "threads"}, {"quick"}, {{"-o", "out"}}};
    const auto args = cli::parseArgs(argc, argv, 1, spec);
    if (args.flags.count("runs")) runs = std::stoul(args.flags.at("runs"));
    if (args.flags.count("out")) outFile = args.flags.at("out");
    if (args.flags.count("threads")) configureThreads(std::stoul(args.flags.at("threads")));
    quick = args.flags.count("quick") != 0;
  } catch (const std::exception &e) {
    std::fprintf(stderr, "usage: ted_bench [--runs N] [--out FILE] [--threads N] [--quick]\n%s\n",
                 e.what());
    return 2;
  }
  if (runs < 3) runs = 3; // median of >= 3 by contract

  const std::vector<std::string> appNames =
      quick ? std::vector<std::string>{"tealeaf"} : std::vector<std::string>{"tealeaf", "cloverleaf"};
  const std::vector<std::pair<metrics::Metric, const char *>> allMetrics = {
      {metrics::Metric::Tsrc, "Tsrc"}, {metrics::Metric::Tsem, "Tsem"},
      {metrics::Metric::Tir, "Tir"}};
  const auto metricSpecs =
      quick ? std::vector<std::pair<metrics::Metric, const char *>>{{metrics::Metric::Tsem, "Tsem"}}
            : allMetrics;

  json::Object report;
  report.emplace("runs", json::Value(runs));
  json::Object apps;

  for (const auto &appName : appNames) {
    std::printf("indexing %s...\n", appName.c_str());
    const auto app = silvervale::indexApp(appName);
    json::Object perMetric;
    for (const auto &[metric, name] : metricSpecs) {
      double offMs = 0, onMs = 0;
      auto cell = benchCell(app, metric, runs, offMs, onMs);
      cell.emplace("strategy_histogram",
                   json::Value(strategyHistogram(tree::TedEngine::global().stats())));
      std::printf("  %-12s %-5s engine off: %9.1f ms   engine on: %9.1f ms   speedup: %.2fx\n",
                  appName.c_str(), name, offMs, onMs, onMs > 0 ? offMs / onMs : 0);
      perMetric.emplace(name, json::Value(std::move(cell)));
    }
    apps.emplace(appName, json::Value(std::move(perMetric)));
  }
  report.emplace("apps", json::Value(std::move(apps)));

  const auto stats = tree::TedEngine::global().stats();
  json::Object engine;
  engine.emplace("view_hits", json::Value(stats.viewHits));
  engine.emplace("view_misses", json::Value(stats.viewMisses));
  engine.emplace("memo_hits", json::Value(stats.memoHits));
  engine.emplace("memo_misses", json::Value(stats.memoMisses));
  engine.emplace("whole_tree_shortcuts", json::Value(stats.wholeTreeShortcuts));
  engine.emplace("strategy_misses", json::Value(stats.strategyMisses));
  engine.emplace("subtree_block_hits", json::Value(stats.subtreeBlockHits));
  report.emplace("engine_stats_last_run", json::Value(std::move(engine)));

  std::ofstream out(outFile);
  out << json::write(json::Value(std::move(report)), 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outFile.c_str());
    return 1;
  }
  std::printf("wrote %s\n", outFile.c_str());
  return 0;
}
