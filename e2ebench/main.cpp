// e2ebench — the end-to-end benchmark driver.
//
//   e2ebench --workload paper_deck|lint_stream|query_mix --seed N --seconds S
//            --trace 0|1 [--answers-dir DIR] [--trace-out FILE]
//   e2ebench --generate-answers [--workload NAME] [--answers-dir DIR]
//
// --trace 0 sets the workload up several times (setup_s is the median), runs
// one warm-up pass, then cold passes at 4 workers until S seconds have passed
// (at least three) and reports medians. --trace 1 runs, after the same
// warm-up, one untraced pass at 4 workers, one at 1 worker and one traced
// pass at 1 worker, and reports the per-layer numbers; the spans and
// counters go to --trace-out. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>

#include "support/parallel.hpp"
#include "support/pipeline.hpp"
#include "tree/tedengine.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

constexpr usize kSetupReps = 5;
constexpr usize kMinPasses = 3;
constexpr usize kWorkers = 4;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  bool generate = false;
  std::string answersDir = "e2ebench/answers";
  std::string traceOut;
};

Args parseArgs(int argc, char **argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--answers-dir") a.answersDir = value();
    else if (k == "--trace-out") a.traceOut = value();
    else if (k == "--generate-answers") a.generate = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

std::unique_ptr<Workload> makeWorkload(const std::string &name) {
  if (name == "paper_deck") return makeDeck();
  if (name == "lint_stream") return makeLintStream();
  if (name == "query_mix") return makeQueryMix();
  throw std::runtime_error("unknown workload '" + name + "'");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<usize>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<usize>(rank, 1, v.size()) - 1];
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Start a fresh peak-RSS window: return freed heap to the OS and reset the
/// kernel's high-water mark (Linux clear_refs). False when the kernel
/// refuses, in which case peaks are process-wide.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct PassStats {
  double wallS = 0, cpuS = 0, rssMb = 0;
};

/// One cold pass: empty engine caches (every `svale` process starts cold) and
/// an empty pipeline-stats registry, which otherwise grows by one entry per
/// pipeline run and slows later passes.
PassStats runPass(Workload &w, PassCtx &ctx) {
  sv::tree::TedEngine::global().clear();
  (void)sv::drainPipelineStats();
  resetPeakRss();
  PassStats s;
  const double c0 = cpuSeconds(), t0 = nowS();
  w.pass(ctx);
  s.wallS = nowS() - t0;
  s.cpuS = cpuSeconds() - c0;
  s.rssMb = peakRssMb();
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, u64 attempted, u64 failed, const std::vector<Metric> &metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + fmt(v) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void reportFailures(const std::string &what, const PassCtx &ctx) {
  for (const auto &f : ctx.failures) std::cerr << "e2ebench: " << what << ": " << f << "\n";
}

int runUntraced(const Args &args, Workload &w) {
  std::vector<double> setup;
  for (usize r = 0; r < kSetupReps; ++r) {
    const double t0 = nowS();
    w.setup(args.answersDir, args.seed);
    setup.push_back(nowS() - t0);
  }
  std::cerr << "e2ebench: setup";
  for (const double s : setup) std::cerr << " " << s;
  std::cerr << " s\n";

  // Warm-up: the first pass of a process runs slow (fresh heap arenas, the
  // engine's label interner filling up). It is checked but not timed.
  PassCtx warm(&w.answers(), nullptr, false);
  runPass(w, warm);
  u64 attempted = warm.attempted, failed = warm.failed;
  reportFailures("warm-up pass", warm);
  const u64 digest = warm.digest;

  std::vector<double> wall, cpu, rss, ops;
  const double start = nowS();
  while (wall.size() < kMinPasses || nowS() - start < args.seconds) {
    PassCtx ctx(&w.answers(), nullptr, false);
    const auto s = runPass(w, ctx);
    wall.push_back(s.wallS);
    cpu.push_back(s.cpuS);
    rss.push_back(s.rssMb);
    ops.insert(ops.end(), ctx.opMs.begin(), ctx.opMs.end());
    attempted += ctx.attempted;
    failed += ctx.failed;
    if (ctx.digest != digest) {
      ++failed;
      std::cerr << "e2ebench: pass " << wall.size() << " output digest differs\n";
    }
    reportFailures("pass " + std::to_string(wall.size()), ctx);
    std::cerr << "e2ebench: pass " << wall.size() << ": wall " << s.wallS << " s, cpu " << s.cpuS
              << " s, peak rss " << s.rssMb << " MB\n";
  }
  std::cerr << "e2ebench: " << args.workload << ": " << wall.size() << " passes, " << ops.size()
            << " ops; op_tail_ms is p" << w.tailPercentile() * 100 << "\n";
  printResult(failed == 0, attempted, failed,
              {{"setup_s", median(setup), "s"},
               {"wall_s", median(wall), "s"},
               {"cpu_s", median(cpu), "s"},
               {"peak_rss_mb", median(rss), "MB"},
               {"op_p50_ms", percentile(ops, 0.50), "ms"},
               {"op_tail_ms", percentile(ops, w.tailPercentile()), "ms"}});
  return 0;
}

/// Summaries of the 4-worker pass's pipeline nodes (support/pipeline.hpp).
struct RuntimeSummary {
  double indexOccupancy = 0, indexBusyMs = 0, lintBusyMs = 0;
  double steals = 0, maxQueueDepth = 0;
};

RuntimeSummary summarise(const std::vector<sv::NodeStats> &nodes) {
  RuntimeSummary r;
  for (const auto &n : nodes) {
    if (n.name == "db-index") {
      r.indexOccupancy = n.occupancy();
      r.indexBusyMs += n.busyMs;
    }
    if (n.name == "lint-units") r.lintBusyMs += n.busyMs;
    r.steals += static_cast<double>(n.steals);
    r.maxQueueDepth = std::max(r.maxQueueDepth, static_cast<double>(n.maxQueueDepth));
  }
  return r;
}

void writeTrace(const std::string &path, const std::vector<Metric> &metrics,
                const std::map<std::string, double> &counters) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "e2ebench: cannot write " << path << "\n";
    return;
  }
  // Chrome trace-event JSON: one complete ("X") event per span.
  out << "{\"traceEvents\": [";
  const auto &spans = tracer().spans();
  for (usize i = 0; i < spans.size(); ++i) {
    const auto &s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << fmt(s.startMs * 1e3)
        << ", \"dur\": " << fmt((s.endMs - s.startMs) * 1e3) << ", \"args\": {\"id\": " << i
        << ", \"parent\": "
        << (s.parent == Tracer::kNoParent ? std::string("null") : std::to_string(s.parent))
        << ", \"allocs\": " << s.allocs << "}}";
  }
  out << "\n],\n\"counters\": {";
  bool first = true;
  for (const auto &[k, v] : counters) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << fmt(v);
    first = false;
  }
  out << "},\n\"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  out << "}}\n";
}

int runTraced(const Args &args, Workload &w) {
  w.setup(args.answersDir, args.seed);
  u64 attempted = 0, failed = 0;
  const auto account = [&](const char *what, const PassCtx &ctx) {
    attempted += ctx.attempted;
    failed += ctx.failed;
    reportFailures(what, ctx);
  };

  PassCtx warm(&w.answers(), nullptr, false);
  runPass(w, warm);
  account("warm-up pass", warm);

  PassCtx four(&w.answers(), nullptr, false);
  runPass(w, four);
  account("4-worker pass", four);
  const auto runtime = summarise(sv::drainPipelineStats());

  sv::configureThreads(1);
  PassCtx one(&w.answers(), nullptr, false);
  const auto oneStats = runPass(w, one);
  account("1-worker pass", one);

  PassCtx tr(&w.answers(), nullptr, true);
  tracer().start();
  const auto trStats = runPass(w, tr);
  tracer().stop();
  account("traced pass", tr);
  const auto engine = sv::tree::TedEngine::global().stats();
  w.traceCounters(tr);

  ++attempted;
  if (tr.digest != one.digest || tr.digest != four.digest) {
    ++failed;
    std::cerr << "e2ebench: traced output digest differs from the untraced passes\n";
  }

  // Self time and allocations per span name; layer = the name's stem.
  const auto self = tracer().selfByName();
  const auto ms = [&](const std::string &name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.ms;
  };
  const auto allocs = [&](const std::string &prefix) {
    double n = 0;
    for (const auto &[name, s] : self)
      if (name == prefix || name.rfind(prefix + ".", 0) == 0) n += static_cast<double>(s.allocs);
    return n;
  };
  const auto counter = [&](const std::string &name) {
    const auto it = tr.counters.find(name);
    return it == tr.counters.end() ? 0.0 : it->second;
  };
  // Coverage: the share of the pass spent inside layer spans (self time of
  // phase containers and op wrappers, and time outside any span, is glue).
  const double passMs = trStats.wallS * 1e3;
  double glueMs = passMs;
  for (const auto &[name, s] : self)
    if (name.rfind("phase.", 0) != 0 && name.rfind("op.", 0) != 0) glueMs -= s.ms;

  const double calls = static_cast<double>(engine.wholeTreeShortcuts + engine.memoHits +
                                           engine.prunedByBound + engine.memoMisses);
  double kernels = 0, cells = 0;
  for (int k = 0; k < 4; ++k) {
    kernels += static_cast<double>(engine.spfKernels[k]);
    cells += static_cast<double>(engine.spfSubproblems[k]);
  }
  const auto kind = [&](sv::tree::apted::PathKind k) {
    return static_cast<double>(engine.spfSubproblems[static_cast<int>(k)]);
  };
  using K = sv::tree::apted::PathKind;

  std::vector<Metric> m = {
      {"frontend.pp_ms", ms("frontend.pp"), "ms"},
      {"frontend.lex_ms", ms("frontend.lex"), "ms"},
      {"frontend.parse_ms", ms("frontend.parse"), "ms"},
      {"frontend.sema_ms", ms("frontend.sema"), "ms"},
      {"frontend.fortran_ms", ms("frontend.fortran"), "ms"},
      {"frontend.tokens", counter("frontend.tokens"), "count"},
      {"frontend.allocs", allocs("frontend"), "count"},
      {"trees.text_ms", ms("trees.text"), "ms"},
      {"trees.tsrc_ms", ms("trees.tsrc"), "ms"},
      {"trees.tsem_ms", ms("trees.tsem"), "ms"},
      {"trees.inline_ms", ms("trees.inline"), "ms"},
      {"trees.tir_ms", ms("trees.tir"), "ms"},
      {"trees.nodes", counter("trees.nodes"), "count"},
      {"trees.allocs", allocs("trees"), "count"},
      {"lower.ms", ms("lower"), "ms"},
      {"lower.instrs", counter("lower.instrs"), "count"},
      {"lower.allocs", allocs("lower"), "count"},
      {"lint.ast_ms", ms("lint.ast"), "ms"},
      {"lint.ir_ms", ms("lint.ir"), "ms"},
      {"lint.deps_ms", ms("lint.deps"), "ms"},
      {"lint.range_ms", ms("lint.range"), "ms"},
      {"lint.diags", counter("lint.diags"), "count"},
      {"lint.loops", counter("lint.loops"), "count"},
      {"lint.provably_parallel", counter("lint.provably_parallel"), "count"},
      {"lint.deps_provably_parallel", counter("lint.deps_provably_parallel"), "count"},
      {"lint.gen_uninit_errors", counter("lint.gen_uninit_errors"), "count"},
      {"sign.ms", ms("sign"), "ms"},
      {"corpus.ms", ms("corpus"), "ms"},
      {"ted.view_ms", ms("ted.view"), "ms"},
      {"ted.dp_ms", ms("ted.dp"), "ms"},
      {"ted.view_builds", static_cast<double>(engine.viewMisses), "count"},
      {"ted.view_hits", static_cast<double>(engine.viewHits), "count"},
      {"ted.calls", calls, "count"},
      {"ted.memo_hits", static_cast<double>(engine.memoHits), "count"},
      {"ted.memo_hit_rate", calls > 0 ? static_cast<double>(engine.memoHits) / calls : 0.0,
       "ratio"},
      {"ted.whole_tree_shortcuts", static_cast<double>(engine.wholeTreeShortcuts), "count"},
      {"ted.strategy_builds", static_cast<double>(engine.strategyMisses), "count"},
      {"ted.kernels", kernels, "count"},
      {"ted.dp_cells", cells, "count"},
      {"ted.dp_cells.leftA", kind(K::LeftA), "count"},
      {"ted.dp_cells.leftB", kind(K::LeftB), "count"},
      {"ted.dp_cells.rightA", kind(K::RightA), "count"},
      {"ted.dp_cells.rightB", kind(K::RightB), "count"},
      {"ted.subtree_block_hits", static_cast<double>(engine.subtreeBlockHits), "count"},
      {"ted.pruned_by_bound", static_cast<double>(engine.prunedByBound), "count"},
      {"ted.pruned_by_cutoff", static_cast<double>(engine.prunedByCutoff), "count"},
      {"ted.cutoff_exact", static_cast<double>(engine.cutoffExact), "count"},
      {"ted.allocs", allocs("ted"), "count"},
      {"query.ms", ms("query"), "ms"},
      {"query.candidates", counter("query.candidates"), "count"},
      {"query.filter_rate", counter("query.filter_rate"), "ratio"},
      {"query.exact_refines", counter("query.exact_refines"), "count"},
      {"db.serialise_ms", ms("db.serialise"), "ms"},
      {"db.deserialise_ms", ms("db.deserialise"), "ms"},
      {"db.bytes", counter("db.bytes"), "bytes"},
      {"cluster.ms", ms("cluster"), "ms"},
      {"perf.ms", ms("perf"), "ms"},
      {"runtime.index.occupancy", runtime.indexOccupancy, "ratio"},
      {"runtime.index.busy_ms", runtime.indexBusyMs, "ms"},
      {"runtime.steals", runtime.steals, "count"},
      {"runtime.max_queue_depth", runtime.maxQueueDepth, "count"},
      {"runtime.lint.busy_ms", runtime.lintBusyMs, "ms"},
  };
  for (const char *phase : {"index", "app_matrices", "port_matrix", "nav", "lint", "load",
                            "radius_matrices", "queries"}) {
    const std::string key = std::string("phase.") + phase;
    const auto get = [&](const PassCtx &ctx) {
      const auto it = ctx.phaseMs.find(key);
      return it == ctx.phaseMs.end() ? 0.0 : it->second;
    };
    m.push_back({key + "_ms", get(four), "ms"});
    m.push_back({key + "_1t_ms", get(one), "ms"});
  }
  m.push_back({"trace.pass_ms", passMs, "ms"});
  m.push_back({"trace.coverage", passMs > 0 ? 1.0 - glueMs / passMs : 0.0, "ratio"});
  m.push_back({"trace.overhead", trStats.wallS / oneStats.wallS - 1.0, "ratio"});
  m.push_back({"trace.spans", static_cast<double>(tracer().spans().size()), "count"});

  if (!args.traceOut.empty()) writeTrace(args.traceOut, m, tr.counters);
  printResult(failed == 0, attempted, failed, m);
  return 0;
}

int generateAnswers(const Args &args) {
  std::vector<std::string> names = {"paper_deck", "lint_stream", "query_mix"};
  if (!args.workload.empty()) names = {args.workload};
  for (const auto &name : names) {
    const double t0 = nowS();
    auto w = makeWorkload(name);
    w->setup("", args.seed);
    Answers out;
    w->generate(out);
    out.save(args.answersDir + "/" + name + ".txt");
    std::cerr << "e2ebench: " << name << ": " << out.values.size() << " answers in "
              << nowS() - t0 << " s\n";
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    const auto args = parseArgs(argc, argv);
    sv::configureThreads(kWorkers);
    (void)sv::sharedPool(); // size the shared pool before any pass
    if (args.generate) return generateAnswers(args);
    auto w = makeWorkload(args.workload);
    if (args.trace != 0 && args.trace != 1) throw std::runtime_error("--trace takes 0 or 1");
    return args.trace ? runTraced(args, *w) : runUntraced(args, *w);
  } catch (const std::exception &e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
