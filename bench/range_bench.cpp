// Value-range-tier cost benchmark: for every TeaLeaf port, times (a) the
// dependence tier (lint::runDeps — the established baseline the range
// tier stacks on) and (b) the range tier (lint::runRange: SSA overlay,
// interprocedural interval fixpoint, OOB/div/branch checks) over the same
// pre-lowered modules. Writes BENCH_range.json (median of N >= 3 runs per
// port) and enforces the tier's cost budget: total range cost must stay
// within --max-ratio (default 2.0) of total deps cost, or the run exits
// non-zero — `svale lint --range` must remain interactive.
//
// Usage: range_bench [--runs N] [--out FILE] [--max-ratio R]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "lint/depslint.hpp"
#include "lint/rangelint.hpp"
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
  std::string outFile = "BENCH_range.json";
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

  double totalDepsMs = 0;
  double totalRangeMs = 0;
  for (const auto &model : corpus::modelsOf(appName)) {
    const auto cb = corpus::make(appName, model);
    const auto units = db::lowerUnits(cb);
    usize functions = 0; // counted once, outside the timed region
    for (const auto &u : units) functions += u.module.functions.size();
    std::vector<double> depsTimes;
    std::vector<double> rangeTimes;
    usize diagCount = 0;
    for (usize r = 0; r < runs; ++r) {
      auto start = std::chrono::steady_clock::now();
      for (const auto &u : units) (void)lint::runDeps(u.module);
      depsTimes.push_back(msSince(start));

      diagCount = 0;
      start = std::chrono::steady_clock::now();
      for (const auto &u : units) diagCount += lint::runRange(u.module).size();
      rangeTimes.push_back(msSince(start));
    }
    const double depsMs = median(depsTimes);
    const double rangeMs = median(rangeTimes);
    totalDepsMs += depsMs;
    totalRangeMs += rangeMs;
    std::printf(
        "  %-12s deps %7.2f ms   range %7.2f ms   functions: %3zu   diagnostics: %zu\n",
        model.c_str(), depsMs, rangeMs, functions, diagCount);
    json::Object cell;
    cell.emplace("deps_median_ms", json::Value(depsMs));
    cell.emplace("range_median_ms", json::Value(rangeMs));
    cell.emplace("functions", json::Value(functions));
    cell.emplace("diagnostics", json::Value(diagCount));
    ports.emplace(model, json::Value(std::move(cell)));
  }
  const double ratio = totalDepsMs > 0 ? totalRangeMs / totalDepsMs : 0.0;
  report.emplace("ports", json::Value(std::move(ports)));
  report.emplace("total_deps_ms", json::Value(totalDepsMs));
  report.emplace("total_range_ms", json::Value(totalRangeMs));
  report.emplace("ratio", json::Value(ratio));

  std::ofstream out(outFile);
  out << json::write(json::Value(std::move(report)), 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outFile.c_str());
    return 1;
  }
  std::printf("wrote %s (deps %.2f ms, range %.2f ms, ratio %.2fx across %s ports)\n",
              outFile.c_str(), totalDepsMs, totalRangeMs, ratio, appName.c_str());
  if (ratio > maxRatio) {
    std::fprintf(stderr, "error: range tier costs %.2fx the deps tier (budget %.2fx)\n",
                 ratio, maxRatio);
    return 1;
  }
  return 0;
}
