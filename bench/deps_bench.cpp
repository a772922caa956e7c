// Dependence-tier cost benchmark: for every TeaLeaf port, times (a) the
// IR-tier checks (lint::runIr — the established baseline) and (b) the
// dependence tier (lint::runDeps: call-graph summaries, loop recovery,
// subscript tests, scalar classification) over the same pre-lowered
// modules. Writes BENCH_deps.json (median of N >= 3 runs per port) and
// enforces the tier's cost budget: total deps cost must stay within
// --max-ratio (default 2.0) of total IR lint cost, or the run exits
// non-zero — `svale lint --deps` must remain interactive.
//
// Usage: deps_bench [--runs N] [--out FILE] [--max-ratio R]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "support/json.hpp"

using namespace sv;

namespace {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

} // namespace

int main(int argc, char **argv) {
  usize runs = 3;
  std::string outFile = "BENCH_deps.json";
  double maxRatio = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) runs = std::stoul(argv[++i]);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) outFile = argv[++i];
    else if (std::strcmp(argv[i], "--max-ratio") == 0 && i + 1 < argc)
      maxRatio = std::stod(argv[++i]);
  }
  if (runs < 3) runs = 3; // median of >= 3 by contract

  const std::string appName = "tealeaf";
  json::Object report;
  report.emplace("app", appName);
  report.emplace("runs", json::Value(runs));
  report.emplace("max_ratio", json::Value(maxRatio));
  json::Object ports;

  double totalIrMs = 0;
  double totalDepsMs = 0;
  for (const auto &model : corpus::modelsOf(appName)) {
    const auto cb = corpus::make(appName, model);
    const auto units = db::lowerUnits(cb);
    std::vector<double> irTimes;
    std::vector<double> depsTimes;
    usize loops = 0; // counted once, outside the timed region
    for (const auto &u : units) {
      const auto deps = ir::analyzeModule(u.module);
      for (const auto &fd : deps.functions) loops += fd.loops.size();
    }
    usize diagCount = 0;
    for (usize r = 0; r < runs; ++r) {
      auto start = std::chrono::steady_clock::now();
      for (const auto &u : units) (void)lint::runIr(u.module);
      irTimes.push_back(msSince(start));

      diagCount = 0;
      start = std::chrono::steady_clock::now();
      for (const auto &u : units) diagCount += lint::runDeps(u.module).size();
      depsTimes.push_back(msSince(start));
    }
    const double irMs = median(irTimes);
    const double depsMs = median(depsTimes);
    totalIrMs += irMs;
    totalDepsMs += depsMs;
    std::printf("  %-12s irlint %7.2f ms   deps %7.2f ms   loops: %3zu   diagnostics: %zu\n",
                model.c_str(), irMs, depsMs, loops, diagCount);
    json::Object cell;
    cell.emplace("irlint_median_ms", json::Value(irMs));
    cell.emplace("deps_median_ms", json::Value(depsMs));
    cell.emplace("loops", json::Value(loops));
    cell.emplace("diagnostics", json::Value(diagCount));
    ports.emplace(model, json::Value(std::move(cell)));
  }
  const double ratio = totalIrMs > 0 ? totalDepsMs / totalIrMs : 0.0;
  report.emplace("ports", json::Value(std::move(ports)));
  report.emplace("total_irlint_ms", json::Value(totalIrMs));
  report.emplace("total_deps_ms", json::Value(totalDepsMs));
  report.emplace("ratio", json::Value(ratio));

  std::ofstream out(outFile);
  out << json::write(json::Value(std::move(report)), 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outFile.c_str());
    return 1;
  }
  std::printf("wrote %s (irlint %.2f ms, deps %.2f ms, ratio %.2fx across %s ports)\n",
              outFile.c_str(), totalIrMs, totalDepsMs, ratio, appName.c_str());
  if (ratio > maxRatio) {
    std::fprintf(stderr, "error: deps tier costs %.2fx the IR tier (budget %.2fx)\n",
                 ratio, maxRatio);
    return 1;
  }
  return 0;
}
