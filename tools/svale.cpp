// svale — the SilverVale command-line driver. Wraps the end-to-end
// workflow of Fig 2 for the embedded corpus and for external codebases
// described by a compile_commands.json.
//
//   svale list
//   svale run <app> <model>                 execute in the VM (verification + coverage)
//   svale index <app> <model> -o out.svdb   index a port and write the Codebase DB
//   svale diverge <app> <A> <B> [--metric M] [--pp] [--cov]
//   svale cluster <app> [--metric M]        dendrogram over all ports
//   svale heatmap <app> [--base serial]     divergence-from-baseline rows
//   svale cascade <app>                     Φ cascade over the Table III platforms
//   svale nav <app>                         Φ × TBMD navigation chart
//   svale coupling <app> <model>            module-coupling report
//   svale lint <app> <model> [--ir] [--deps] [--json]
//                                           parallel-semantics lint of a port
//   svale lint-dir <dir> [--ir] [--deps] [--json]
//                                           lint a real on-disk codebase
//                                           (--ir adds the CFG/dataflow tier,
//                                           --deps the dependence verdicts)
//   svale deps <app> [model] [--json]       per-loop dependence report
//   svale index-dir <dir> [-o out.svdb]     index a real on-disk codebase
//                                           (needs <dir>/compile_commands.json)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "db/diskload.hpp"
#include "fuzz/fuzz.hpp"
#include "metrics/coupling.hpp"
#include "silvervale/silvervale.hpp"
#include "support/cliargs.hpp"
#include "support/parallel.hpp"
#include "support/pipeline.hpp"

using namespace sv;

namespace {

using cli::Args;

int usage() {
  std::printf(
      "usage: svale <command> [...]\n"
      "  list                                 corpus apps and their models\n"
      "  run <app> <model>                    execute the port in the VM\n"
      "  index <app> <model> [-o file.svdb]   write a Codebase DB\n"
      "  diverge <app> <A> <B> [--metric M] [--pp] [--cov] [--algo A]\n"
      "  cluster <app>|all|fuzz [--metric M] [--algo A] [--k N] [--cutoff R]\n"
      "          [--count K] [--seed N] [--json]\n"
      "          <app>: dendrogram over the app's ports (--k adds k-medoids)\n"
      "          all:   k-medoids over every corpus port; --cutoff is a\n"
      "                 normalised radius in [0,1] capping the matrix via\n"
      "                 the filter-and-refine query layer\n"
      "          fuzz:  k-medoids over --count generated T_sem trees;\n"
      "                 --cutoff is a raw TED distance cap\n"
      "  query <app> <model> [--top-k K] [--range D] [--metric M] [--json]\n"
      "                                       rank every other corpus port by\n"
      "                                       divergence from the query port\n"
      "                                       (--range D: raw distance <= D)\n"
      "  heatmap <app> [--base MODEL]\n"
      "  cascade <app>\n"
      "  nav <app>\n"
      "  coupling <app> <model>\n"
      "  lint <app> <model> [--ir] [--deps] [--range] [--json]\n"
      "       [--max-severity=note|warning|error]\n"
      "                                       parallel-semantics diagnostics\n"
      "  lint-dir <dir> [--ir] [--deps] [--range] [--json]\n"
      "                                       lint an on-disk codebase\n"
      "                                       (--ir adds the IR-tier checks,\n"
      "                                       --deps the dependence verdicts,\n"
      "                                       --range the value-range checks;\n"
      "                                       --max-severity=S exits non-zero on\n"
      "                                       any diagnostic at severity >= S,\n"
      "                                       default error)\n"
      "  deps <app> [model] [--json]          per-loop dependence report:\n"
      "                                       recovered nests, distance and\n"
      "                                       direction vectors, scalar classes,\n"
      "                                       provably-parallel verdicts\n"
      "  range <app> [model] [--json]         per-function value-range report:\n"
      "                                       argument/return intervals from the\n"
      "                                       interprocedural fixpoint, plus the\n"
      "                                       range-tier diagnostics\n"
      "  index-dir <dir> [-o file.svdb]       index an on-disk codebase\n"
      "  fuzz [--seed N] [--count K] [--lang c|f|both] [--oracle NAME|all]\n"
      "       [--inject-dep] [--inject-range] [--out DIR]\n"
      "                                       differential fuzzing of the pipeline;\n"
      "                                       reduced reproducers land in DIR\n"
      "                                       (default tests/fuzz/corpus)\n"
      "metrics: SLOC LLOC Source Tsrc Tsem Tsem+i Tir (default Tsem)\n"
      "oracles: round-trip vm ir ted lint lb deps range pipeline\n"
      "TED algorithms (--algo): apted (default) | zs — both return\n"
      "identical distances; zs is the uncached cross-check oracle (slow)\n"
      "--threads N caps the shared worker pool for every command\n"
      "(equivalent to the SV_THREADS environment variable)\n"
      "--pipeline-stats prints one throughput/occupancy/steal row per\n"
      "runtime node the command ran\n");
  return 2;
}

/// TED options from --algo. Both algorithms are byte-identical; `zs` runs
/// the uncached Zhang–Shasha oracle as a cross-check.
tree::TedOptions tedOptionsFrom(const Args &args) {
  tree::TedOptions opts;
  const auto it = args.flags.find("algo");
  if (it == args.flags.end()) return opts;
  if (it->second == "apted") opts.algo = tree::TedAlgo::Apted;
  else if (it->second == "zs") opts.algo = tree::TedAlgo::ZhangShasha;
  else throw cli::UsageError("unknown TED algorithm: " + it->second + " (want apted|zs)");
  return opts;
}

metrics::Metric parseMetric(const std::string &name) {
  if (name == "SLOC") return metrics::Metric::SLOC;
  if (name == "LLOC") return metrics::Metric::LLOC;
  if (name == "Source") return metrics::Metric::Source;
  if (name == "Tsrc") return metrics::Metric::Tsrc;
  if (name == "Tsem") return metrics::Metric::Tsem;
  if (name == "Tsem+i") return metrics::Metric::TsemInline;
  if (name == "Tir") return metrics::Metric::Tir;
  throw ParseError("unknown metric: " + name);
}

/// Flags that take a value vs. flags that are pure switches. Keeping the
/// split explicit lets a value flag consume the next argument even when it
/// starts with '-' (e.g. `--base -serial-variant`), and lets everything
/// else that looks like a flag be rejected instead of silently becoming a
/// positional or a bare switch. (--inject-bug is the fuzz harness
/// self-test: plant a generator bug and check the oracles catch it.)
const cli::FlagSpec kFlagSpec = {
    /*valueFlags=*/{"metric", "base", "out", "seed", "count", "lang", "oracle", "algo", "threads",
                    "k", "cutoff", "top-k", "range", "max-severity"},
    /*bareFlags=*/{"pp", "cov", "json", "ir", "deps", "inject-bug", "inject-dep",
                   "inject-range", "no-reduce", "pipeline-stats"},
    /*shortAliases=*/{{"-o", "out"}, {"-j", "threads"}},
};

/// The flag grammar is almost global, but "--range" is overloaded: `query`
/// takes a raw-distance value (`--range D`) while the lint commands use it
/// as a bare tier switch (`lint --range`). Resolve per command.
cli::FlagSpec specFor(const std::string &cmd) {
  cli::FlagSpec spec = kFlagSpec;
  if (cmd == "lint" || cmd == "lint-dir") {
    spec.valueFlags.erase("range");
    spec.bareFlags.insert("range");
  }
  return spec;
}

int cmdList() {
  for (const auto &app : corpus::appNames()) {
    std::printf("%s:\n", app.c_str());
    for (const auto &m : corpus::modelsOf(app)) std::printf("  %s\n", m.c_str());
  }
  return 0;
}

int cmdRun(const Args &args) {
  if (args.positional.size() < 2) return usage();
  const auto cb = corpus::make(args.positional[0], args.positional[1]);
  db::IndexOptions opts;
  opts.runCoverage = true;
  const auto result = db::index(cb, opts);
  const auto &run = *result.coverageRun;
  std::printf("%s", run.output.c_str());
  std::printf("\nsteps=%llu coveredLines=%zu\n", static_cast<unsigned long long>(run.steps),
              run.coverage.coveredLineCount());
  const bool pass = run.output.find("PASSED") != std::string::npos;
  return pass ? 0 : 1;
}

int cmdIndex(const Args &args) {
  if (args.positional.size() < 2) return usage();
  const auto cb = corpus::make(args.positional[0], args.positional[1]);
  db::IndexOptions opts;
  opts.runCoverage = args.flags.count("cov") != 0;
  const auto result = db::index(cb, opts);
  for (const auto &u : result.db.units)
    std::printf("unit %-14s role=%-8s sloc=%-5zu tsrc=%-5zu tsem=%-5zu tsem+i=%-5zu tir=%zu\n",
                u.file.c_str(), u.role.c_str(), u.sloc, u.tsrc.size(), u.tsem.size(),
                u.tsemI.size(), u.tir.size());
  const auto it = args.flags.find("out");
  if (it != args.flags.end()) {
    const auto bytes = result.db.serialise();
    std::ofstream out(it->second, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", it->second.c_str());
      return 1;
    }
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote %s (%zu bytes)\n", it->second.c_str(), bytes.size());
  }
  return 0;
}

int cmdDiverge(const Args &args) {
  if (args.positional.size() < 3) return usage();
  const auto metric = parseMetric(args.flags.count("metric") ? args.flags.at("metric") : "Tsem");
  metrics::Variant variant;
  variant.preprocessed = args.flags.count("pp") != 0;
  variant.coverage = args.flags.count("cov") != 0;
  db::IndexOptions opts;
  opts.runCoverage = variant.coverage;
  const auto a = db::index(corpus::make(args.positional[0], args.positional[1]), opts).db;
  const auto b = db::index(corpus::make(args.positional[0], args.positional[2]), opts).db;
  if (metrics::isAbsolute(metric)) {
    std::printf("%s: %zu vs %zu\n", args.flags.count("metric") ? args.flags.at("metric").c_str()
                                                               : "Tsem",
                metrics::absolute(a, metric, variant), metrics::absolute(b, metric, variant));
    return 0;
  }
  const auto d = metrics::diverge(a, b, metric, variant, tedOptionsFrom(args));
  std::printf("d=%llu dmax(Eq7)=%llu dmaxSym=%llu normalised=%.4f matched=%zu unmatched=%zu\n",
              static_cast<unsigned long long>(d.distance),
              static_cast<unsigned long long>(d.dmaxEq7),
              static_cast<unsigned long long>(d.dmaxSym), d.normalised(), d.matchedUnits,
              d.unmatchedUnits);
  return 0;
}

void printMedoids(const analysis::DistanceMatrix &m, const analysis::KMedoidsResult &km) {
  std::printf("k-medoids: k=%zu cost=%.4f\n", km.medoids.size(), km.cost);
  for (usize c = 0; c < km.medoids.size(); ++c) {
    std::printf("cluster %zu (medoid %s):\n", c, m.labels[km.medoids[c]].c_str());
    for (usize i = 0; i < km.assignment.size(); ++i)
      if (km.assignment[i] == c)
        std::printf("  %-28s d=%.4f\n", m.labels[i].c_str(), m.at(i, km.medoids[c]));
  }
}

/// k-medoids result as JSON (`cluster ... --json`): one object per cluster
/// with its medoid label and the members' distances to it.
json::Value medoidsJson(const analysis::DistanceMatrix &m, const analysis::KMedoidsResult &km) {
  json::Array clusters;
  for (usize c = 0; c < km.medoids.size(); ++c) {
    json::Array members;
    for (usize i = 0; i < km.assignment.size(); ++i)
      if (km.assignment[i] == c)
        members.push_back(json::Object{{"label", m.labels[i]}, {"d", m.at(i, km.medoids[c])}});
    clusters.push_back(json::Object{{"medoid", m.labels[km.medoids[c]]},
                                    {"members", std::move(members)}});
  }
  return json::Object{
      {"k", km.medoids.size()}, {"cost", km.cost}, {"clusters", std::move(clusters)}};
}

void printFilterStats(const metrics::QueryStats &stats) {
  std::printf("filter: candidates=%zu bound-pruned=%zu cutoff-pruned=%zu exact=%zu rate=%.2f\n",
              stats.candidates, stats.prunedByBound, stats.prunedByCutoff, stats.exact,
              stats.filterRate());
}

json::Value filterStatsJson(const metrics::QueryStats &stats) {
  return json::Object{{"candidates", stats.candidates},
                      {"boundPruned", stats.prunedByBound},
                      {"cutoffPruned", stats.prunedByCutoff},
                      {"exact", stats.exact},
                      {"rate", stats.filterRate()}};
}

void printJson(const json::Value &v) { std::printf("%s\n", json::write(v, 2).c_str()); }

/// `cluster fuzz`: k-medoids over generated T_sem trees through the
/// tree-level filter-and-refine matrix (raw TED distances, --cutoff cap).
int cmdClusterFuzz(const Args &args) {
  const u64 seed = cli::parseU64(args.get("seed", "1"), "seed");
  const usize count = cli::parseU64(args.get("count", "100"), "count");
  const u64 cutoff = cli::parseU64(args.get("cutoff", "0"), "cutoff");
  const usize k = cli::parseU64(args.get("k", "8"), "k");

  std::vector<tree::Tree> corpus(count);
  std::vector<std::string> labels(count);
  const auto generateOne = [&](usize i) {
    fuzz::GenOptions gen;
    gen.lang = i % 2 == 0 ? fuzz::Lang::MiniC : fuzz::Lang::MiniF;
    gen.seed = seed + i / 2;
    const auto program = fuzz::generate(gen);
    corpus[i] = fuzz::semTree(program);
    labels[i] = std::string(fuzz::langName(program.lang)) + "-" + std::to_string(program.seed);
  };
  parallelFor(count, generateOne, 0, "fuzz-corpus");

  metrics::QueryStats stats;
  const auto values = metrics::treeDistanceMatrix(corpus, tedOptionsFrom(args), cutoff, &stats);
  analysis::DistanceMatrix m;
  m.labels = std::move(labels);
  m.values.assign(values.size(), 0.0);
  for (usize i = 0; i < values.size(); ++i) m.values[i] = static_cast<double>(values[i]);

  const auto km = analysis::kMedoids(m, k);
  if (args.has("json")) {
    json::Object out = medoidsJson(m, km).asObject();
    if (cutoff > 0) out["filter"] = filterStatsJson(stats);
    printJson(std::move(out));
    return 0;
  }
  printMedoids(m, km);
  if (cutoff > 0) printFilterStats(stats);
  return 0;
}

/// `cluster all`: k-medoids over every corpus port, through portMatrix's
/// radius-capped filter-and-refine path (--cutoff = normalised radius).
int cmdClusterAll(const Args &args) {
  const auto metric = parseMetric(args.get("metric", "Tsem"));
  const double radius = cli::parseDouble(args.get("cutoff", "0"), "cutoff");
  if (radius > 1)
    throw cli::UsageError("--cutoff expects a normalised radius in [0, 1], got '" +
                          args.get("cutoff", "0") + "'");
  const usize k = cli::parseU64(args.get("k", "5"), "k");
  if (metrics::isAbsolute(metric))
    throw cli::UsageError("cluster all needs a divergence metric, not SLOC/LLOC");

  const auto ports = silvervale::indexAllPorts();
  metrics::QueryStats stats;
  const auto m =
      silvervale::portMatrix(ports, metric, {}, tedOptionsFrom(args), radius, &stats);
  const auto km = analysis::kMedoids(m, k);
  if (args.has("json")) {
    json::Object out = medoidsJson(m, km).asObject();
    if (radius > 0) out["filter"] = filterStatsJson(stats);
    printJson(std::move(out));
    return 0;
  }
  printMedoids(m, km);
  if (radius > 0) printFilterStats(stats);
  return 0;
}

int cmdCluster(const Args &args) {
  if (args.positional.empty()) return usage();
  if (args.positional[0] == "all") return cmdClusterAll(args);
  if (args.positional[0] == "fuzz") return cmdClusterFuzz(args);
  const auto metric = parseMetric(args.flags.count("metric") ? args.flags.at("metric") : "Tsem");
  const auto app = silvervale::indexApp(args.positional[0]);
  const auto m = metrics::isAbsolute(metric)
                     ? silvervale::absoluteDifferenceMatrix(app, metric)
                     : silvervale::divergenceMatrix(app, metric, {}, tedOptionsFrom(args));
  if (args.has("k")) {
    const auto km = analysis::kMedoids(m, cli::parseU64(args.get("k", "3"), "k"));
    if (args.has("json")) printJson(medoidsJson(m, km));
    else printMedoids(m, km);
    return 0;
  }
  const auto merges = analysis::cluster(m);
  if (args.has("json")) {
    json::Array mergeList;
    for (const auto &mg : merges)
      mergeList.push_back(json::Object{
          {"left", mg.left}, {"right", mg.right}, {"height", mg.height}});
    json::Array labels(m.labels.begin(), m.labels.end());
    printJson(json::Object{{"labels", std::move(labels)},
                           {"merges", std::move(mergeList)},
                           {"newick", analysis::toNewick(merges, m.labels)}});
    return 0;
  }
  std::printf("%s", analysis::renderDendrogram(merges, m.labels).c_str());
  std::printf("newick: %s\n", analysis::toNewick(merges, m.labels).c_str());
  return 0;
}

int cmdQuery(const Args &args) {
  if (args.positional.size() < 2) return usage();
  const auto metric = parseMetric(args.get("metric", "Tsem"));
  if (metrics::isAbsolute(metric))
    throw cli::UsageError("query needs a divergence metric, not SLOC/LLOC");
  const std::string label = args.positional[0] + "/" + args.positional[1];

  const auto ports = silvervale::indexAllPorts();
  const db::CodebaseDb *query = nullptr;
  std::vector<const db::CodebaseDb *> corpus;
  std::vector<usize> portOf; // corpus index -> ports index
  for (usize i = 0; i < ports.size(); ++i) {
    if (ports[i].label == label) {
      query = &ports[i].db;
      continue;
    }
    corpus.push_back(&ports[i].db);
    portOf.push_back(i);
  }
  if (!query) throw cli::UsageError("unknown port: " + label);

  metrics::QueryStats stats;
  std::vector<metrics::Neighbor> hits;
  const auto ted = tedOptionsFrom(args);
  const bool asJson = args.has("json");
  std::string mode;
  if (args.has("range")) {
    const u64 radius = cli::parseU64(args.get("range", "0"), "range");
    hits = metrics::rangeDivergence(*query, corpus, radius, metric, {}, ted, {}, &stats);
    mode = "range";
    if (!asJson)
      std::printf("within d<=%llu of %s:\n", static_cast<unsigned long long>(radius),
                  label.c_str());
  } else {
    const usize k = cli::parseU64(args.get("top-k", "5"), "top-k");
    hits = metrics::topKDivergence(*query, corpus, k, metric, {}, ted, {}, &stats);
    mode = "top-k";
    if (!asJson) std::printf("top-%zu nearest to %s:\n", k, label.c_str());
  }
  if (asJson) {
    json::Array hitList;
    for (const auto &nb : hits)
      hitList.push_back(json::Object{{"label", ports[portOf[nb.index]].label},
                                     {"distance", nb.distance},
                                     {"normalised", nb.normalised}});
    printJson(json::Object{{"query", label},
                           {"mode", mode},
                           {"hits", std::move(hitList)},
                           {"filter", filterStatsJson(stats)}});
    return 0;
  }
  for (const auto &nb : hits)
    std::printf("  %-28s d=%-8llu normalised=%.4f\n", ports[portOf[nb.index]].label.c_str(),
                static_cast<unsigned long long>(nb.distance), nb.normalised);
  printFilterStats(stats);
  return 0;
}

int cmdHeatmap(const Args &args) {
  if (args.positional.empty()) return usage();
  const std::string base = args.flags.count("base") ? args.flags.at("base") : "serial";
  const auto app = silvervale::indexApp(args.positional[0]);
  const auto &baseDb = app.model(base);
  std::printf("%-12s %-8s %-8s %-8s %-8s %-8s\n", "model", "Source", "Tsrc", "Tsem", "Tsem+i",
              "Tir");
  for (const auto &m : app.models) {
    const auto row = metrics::divergenceRow(baseDb, m);
    std::printf("%-12s %-8.3f %-8.3f %-8.3f %-8.3f %-8.3f\n", m.model.c_str(), row.source,
                row.tsrc, row.tsem, row.tsemI, row.tir);
  }
  return 0;
}

int cmdCascade(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto app = silvervale::indexApp(args.positional[0]);
  const auto kernels = silvervale::paperDeck(args.positional[0]);
  const auto perfs = perf::simulateAll(silvervale::perfModels(app), kernels);
  std::printf("%s", perf::renderCascade(perfs).c_str());
  return 0;
}

int cmdNav(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto app = silvervale::indexApp(args.positional[0]);
  std::printf("%s", perf::renderNavigationChart(silvervale::navigationPoints(app)).c_str());
  return 0;
}

int cmdIndexDir(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto cb = db::loadFromDisk(args.positional[0]);
  const auto result = db::index(cb);
  for (const auto &u : result.db.units)
    std::printf("unit %-20s model=%s sloc=%-5zu tsem=%-5zu tir=%zu deps=%zu\n", u.file.c_str(),
                std::string(ir::modelName(result.db.modelKind)).c_str(), u.sloc, u.tsem.size(),
                u.tir.size(), u.deps.size());
  const auto it = args.flags.find("out");
  if (it != args.flags.end()) {
    const auto bytes = result.db.serialise();
    std::ofstream out(it->second, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::printf("wrote %s (%zu bytes)\n", it->second.c_str(), bytes.size());
  }
  return 0;
}

/// `--max-severity=note|warning|error`: the lowest severity that makes the
/// lint exit code non-zero. Default "error" preserves the original contract.
lint::Severity parseMaxSeverity(const Args &args) {
  const std::string s = args.get("max-severity", "error");
  if (const auto sev = lint::severityFromName(s)) return *sev;
  throw cli::UsageError("--max-severity expects note, warning or error, got '" + s + "'");
}

/// Print a lint report and map it to the exit code contract: non-zero iff
/// at least one diagnostic at or above `threshold` was emitted (every tier
/// counts — the threshold is applied report-wide, not per check).
int reportLint(const lint::Report &report, bool asJson, lint::Severity threshold) {
  if (asJson) std::printf("%s\n", json::write(report.toJson(), 2).c_str());
  else std::printf("%s", report.renderText().c_str());
  return report.countAtOrAbove(threshold) > 0 ? 1 : 0;
}

silvervale::LintOptions lintOptionsFrom(const Args &args) {
  return {.ir = args.has("ir"), .deps = args.has("deps"), .range = args.has("range")};
}

int cmdLint(const Args &args) {
  if (args.positional.size() < 2) return usage();
  const auto cb = corpus::make(args.positional[0], args.positional[1]);
  return reportLint(silvervale::lintCodebase(cb, lintOptionsFrom(args)), args.has("json"),
                    parseMaxSeverity(args));
}

int cmdLintDir(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto cb = db::loadFromDisk(args.positional[0]);
  return reportLint(silvervale::lintCodebase(cb, lintOptionsFrom(args)), args.has("json"),
                    parseMaxSeverity(args));
}

/// `svale deps <app> [model]`: the per-loop dependence report. Without a
/// model every port of the app is analysed (JSON output becomes an array).
int cmdDeps(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto &app = args.positional[0];
  std::vector<std::string> models;
  if (args.positional.size() > 1) models.push_back(args.positional[1]);
  else models = corpus::modelsOf(app);

  if (args.has("json")) {
    json::Array reports;
    for (const auto &model : models)
      reports.push_back(silvervale::depsCodebase(corpus::make(app, model)).toJson());
    if (reports.size() == 1) printJson(reports.front());
    else printJson(std::move(reports));
    return 0;
  }
  for (const auto &model : models)
    std::printf("%s", silvervale::depsCodebase(corpus::make(app, model)).renderText().c_str());
  return 0;
}

/// `svale range <app> [model]`: the per-function value-range report.
/// Without a model every port of the app is analysed (JSON becomes an
/// array), mirroring `svale deps`.
int cmdRange(const Args &args) {
  if (args.positional.empty()) return usage();
  const auto &app = args.positional[0];
  std::vector<std::string> models;
  if (args.positional.size() > 1) models.push_back(args.positional[1]);
  else models = corpus::modelsOf(app);

  if (args.has("json")) {
    json::Array reports;
    for (const auto &model : models)
      reports.push_back(silvervale::rangeCodebase(corpus::make(app, model)).toJson());
    if (reports.size() == 1) printJson(reports.front());
    else printJson(std::move(reports));
    return 0;
  }
  for (const auto &model : models)
    std::printf("%s", silvervale::rangeCodebase(corpus::make(app, model)).renderText().c_str());
  return 0;
}

int cmdCoupling(const Args &args) {
  if (args.positional.size() < 2) return usage();
  const auto dbv = db::index(corpus::make(args.positional[0], args.positional[1])).db;
  const auto report = metrics::coupling(dbv);
  std::printf("coupling density %.2f, average fan-out %.2f\n", report.couplingDensity,
              report.averageFanOut);
  for (const auto &u : report.units) {
    std::printf("%-14s fan-out=%zu fan-in=%zu", u.unit.c_str(), u.fanOut, u.fanIn);
    for (const auto &[other, strength] : u.coupledWith)
      std::printf("  <-> %s (%.2f)", other.c_str(), strength);
    std::printf("\n");
  }
  for (const auto &u : dbv.units) {
    const auto c = metrics::treeComplexity(u.tsem);
    std::printf("%-14s Tsem complexity: nodes=%zu depth=%zu leaves=%zu avg-branch=%.2f\n",
                u.file.c_str(), c.nodes, c.depth, c.leaves, c.averageBranching);
  }
  return 0;
}

int cmdFuzz(const Args &args) {
  fuzz::FuzzOptions opts;
  opts.seed = cli::parseU64(args.get("seed", "1"), "seed");
  opts.count = cli::parseU64(args.get("count", "100"), "count");
  const std::string lang = args.get("lang", "both");
  if (lang == "c") opts.genF = false;
  else if (lang == "f") opts.genC = false;
  else if (lang != "both") throw cli::UsageError("--lang expects c, f or both, got '" + lang + "'");
  const std::string oracle = args.get("oracle", "all");
  if (oracle != "all") {
    const auto o = fuzz::oracleFromName(oracle);
    if (!o) throw cli::UsageError("unknown oracle: " + oracle);
    opts.oracleMask = fuzz::oracleBit(*o);
  }
  opts.outDir = args.get("out", "tests/fuzz/corpus");
  opts.injectUndeclaredUse = args.has("inject-bug");
  opts.injectDep = args.has("inject-dep");
  opts.injectRange = args.has("inject-range");
  opts.reduce = !args.has("no-reduce");

  const auto report = fuzz::runFuzz(opts);
  std::printf("fuzz: %zu programs, %zu corpus rounds, %zu failure(s)\n", report.programs,
              report.corpusRounds, report.failures.size());
  for (const auto &f : report.failures) {
    std::fprintf(stderr, "FAIL [%s] lang=%s seed=%llu: %s\n", fuzz::oracleName(f.oracle),
                 fuzz::langName(f.lang), static_cast<unsigned long long>(f.seed),
                 f.message.c_str());
    if (!f.file.empty()) std::fprintf(stderr, "  reproducer: %s\n", f.file.c_str());
  }
  return report.ok() ? 0 : 1;
}

int dispatch(const std::string &cmd, const Args &args) {
  if (cmd == "list") return cmdList();
  if (cmd == "run") return cmdRun(args);
  if (cmd == "index") return cmdIndex(args);
  if (cmd == "diverge") return cmdDiverge(args);
  if (cmd == "cluster") return cmdCluster(args);
  if (cmd == "query") return cmdQuery(args);
  if (cmd == "heatmap") return cmdHeatmap(args);
  if (cmd == "cascade") return cmdCascade(args);
  if (cmd == "nav") return cmdNav(args);
  if (cmd == "coupling") return cmdCoupling(args);
  if (cmd == "lint") return cmdLint(args);
  if (cmd == "lint-dir") return cmdLintDir(args);
  if (cmd == "deps") return cmdDeps(args);
  if (cmd == "range") return cmdRange(args);
  if (cmd == "index-dir") return cmdIndexDir(args);
  if (cmd == "fuzz") return cmdFuzz(args);
  return usage();
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Args args;
  try {
    args = cli::parseArgs(argc, argv, 2, specFor(cmd));
  } catch (const cli::UsageError &e) {
    std::fprintf(stderr, "svale: %s\n", e.what());
    return usage();
  }
  int rc;
  try {
    // One worker cap for every command (indexApp, divergenceMatrix,
    // lint-dir, fuzz all run on parallelFor nodes): --threads N behaves
    // exactly like SV_THREADS=N, with the flag taking precedence.
    if (const auto it = args.flags.find("threads"); it != args.flags.end()) {
      const u64 n = cli::parseU64(it->second, "threads");
      if (n == 0) throw cli::UsageError("--threads wants a positive integer, got '0'");
      configureThreads(static_cast<usize>(n));
    }
    rc = dispatch(cmd, args);
  } catch (const cli::UsageError &e) {
    std::fprintf(stderr, "svale: %s\n", e.what());
    return usage();
  } catch (const std::exception &e) {
    std::fprintf(stderr, "svale: %s\n", e.what());
    return 1;
  }
  if (args.has("pipeline-stats")) {
    const auto nodes = drainPipelineStats();
    if (nodes.empty()) {
      std::printf("pipeline-stats: no runtime nodes ran\n");
    } else {
      std::printf("pipeline-stats:\n");
      for (const auto &node : nodes) std::printf("%s", node.renderText(1).c_str());
    }
  }
  return rc;
}
