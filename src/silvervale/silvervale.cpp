#include "silvervale/silvervale.hpp"

#include <algorithm>
#include <cmath>

#include "ir/cost.hpp"
#include "ir/range.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/rangelint.hpp"
#include "support/parallel.hpp"

namespace sv::silvervale {

const db::CodebaseDb &IndexedApp::model(const std::string &name) const {
  for (const auto &m : models)
    if (m.model == name) return m;
  internalError("indexed app " + app + " has no model '" + name + "'");
}

std::vector<std::string> IndexedApp::modelNames() const {
  std::vector<std::string> out;
  for (const auto &m : models) out.push_back(m.model);
  return out;
}

lint::Report lintCodebase(const db::Codebase &codebase, const LintOptions &options) {
  lint::Report report;
  report.app = codebase.app;
  report.model = codebase.model;

  // One task per unit: parse, then every requested tier.
  report.units.resize(codebase.commands.size());
  parallelFor(
      codebase.commands.size(),
      [&](usize i) {
        const auto parsed = db::parseUnit(codebase, codebase.commands[i]);
        auto &unit = report.units[i];
        unit.file = parsed.file;
        unit.diags = lint::run(parsed.tu);
        if (!options.ir && !options.deps && !options.range) return;
        const auto module = ir::lower(parsed.tu, {.model = parsed.model});
        const ir::ModuleFacts facts(module); // shared by every IR tier below
        const auto append = [&unit](const std::vector<lint::Diagnostic> &diags) {
          unit.diags.insert(unit.diags.end(), diags.begin(), diags.end());
        };
        if (options.ir) append(lint::runIr(facts));
        if (options.deps) append(lint::runDeps(facts, {.unit = &parsed.tu}));
        if (options.range) append(lint::runRange(facts));
      },
      options.threads, "lint-units");
  return report;
}

DepsReport depsCodebase(const db::Codebase &codebase) {
  DepsReport report;
  report.app = codebase.app;
  report.model = codebase.model;
  report.units.resize(codebase.commands.size());
  parallelFor(
      codebase.commands.size(),
      [&](usize i) {
        const auto lowered = db::lowerParsed(db::parseUnit(codebase, codebase.commands[i]));
        auto &unit = report.units[i];
        unit.file = lowered.file;
        // The whole-codebase report is the expensive path anyway, so it runs
        // under the interprocedural value ranges for the sharper verdicts.
        const ir::ModuleFacts facts(lowered.module);
        const auto ranges = ir::analyzeModuleRanges(facts);
        unit.deps = ir::analyzeModule(facts, &ranges);
      },
      0, "deps-units");
  return report;
}

usize DepsReport::loopCount() const {
  usize n = 0;
  for (const auto &u : units)
    for (const auto &fd : u.deps.functions) n += fd.loops.size();
  return n;
}

usize DepsReport::provablyParallelCount() const {
  usize n = 0;
  for (const auto &u : units)
    for (const auto &fd : u.deps.functions)
      for (const auto &L : fd.loops)
        if (L.provablyParallel) ++n;
  return n;
}

std::string DepsReport::renderText() const {
  std::string out = app + "/" + model + ": " + std::to_string(loopCount()) +
                    " loop(s), " + std::to_string(provablyParallelCount()) +
                    " provably parallel\n";
  for (const auto &u : units) {
    bool any = false;
    for (const auto &fd : u.deps.functions) any = any || !fd.loops.empty();
    if (!any) continue;
    out += u.file + "\n";
    for (const auto &fd : u.deps.functions) {
      if (fd.loops.empty()) continue;
      out += "  " + fd.function + "\n";
      for (const auto &L : fd.loops) {
        out += "    ";
        for (u32 d = 0; d < L.depth; ++d) out += "  ";
        out += "line " + std::to_string(L.line);
        if (!L.inductionName.empty()) {
          out += ": " + L.inductionName + " (step " + std::to_string(L.step);
          if (L.tripCount) out += ", trip " + std::to_string(*L.tripCount);
          out += ")";
        } else {
          out += ": no affine induction";
        }
        if (L.provablyParallel) out += " [provably parallel]";
        else if (!L.analyzable) out += " [not analyzable]";
        out += "\n";
        for (const auto &dep : L.deps) {
          out += "      ";
          for (u32 d = 0; d < L.depth; ++d) out += "  ";
          out += std::string(dep.proven ? "" : "assumed ") + ir::name(dep.kind) +
                 " dep on '" + dep.array + "'" + (dep.carried ? " carried" : "");
          if (dep.distance) out += " distance " + std::to_string(*dep.distance);
          out += std::string(" direction ") + ir::name(dep.direction) + "\n";
        }
        for (const auto &s : L.scalars) {
          if (s.cls == ir::ScalarClass::Induction) continue;
          out += "      ";
          for (u32 d = 0; d < L.depth; ++d) out += "  ";
          out += "scalar '" + s.display + "' " + ir::name(s.cls);
          if (!s.op.empty()) out += "(" + s.op + ")";
          if (s.shared) out += " shared";
          out += "\n";
        }
      }
    }
  }
  return out;
}

json::Value DepsReport::toJson() const {
  json::Object root;
  root.emplace("app", app);
  root.emplace("model", model);
  root.emplace("loops", loopCount());
  root.emplace("provablyParallel", provablyParallelCount());
  json::Array unitArr;
  for (const auto &u : units) {
    json::Object uo;
    uo.emplace("file", u.file);
    json::Array fnArr;
    for (const auto &fd : u.deps.functions) {
      if (fd.loops.empty()) continue;
      json::Object fo;
      fo.emplace("function", fd.function);
      json::Array loopArr;
      for (const auto &L : fd.loops) {
        json::Object lo;
        lo.emplace("line", static_cast<i64>(L.line));
        lo.emplace("depth", static_cast<i64>(L.depth));
        lo.emplace("induction", L.inductionName);
        lo.emplace("affine", L.affine);
        lo.emplace("step", L.step);
        if (L.tripCount) lo.emplace("trip", *L.tripCount);
        lo.emplace("analyzable", L.analyzable);
        lo.emplace("provablyParallel", L.provablyParallel);
        json::Array depArr;
        for (const auto &dep : L.deps) {
          json::Object dobj;
          dobj.emplace("array", dep.array);
          dobj.emplace("kind", ir::name(dep.kind));
          dobj.emplace("carried", dep.carried);
          dobj.emplace("proven", dep.proven);
          if (dep.distance) dobj.emplace("distance", *dep.distance);
          dobj.emplace("direction", ir::name(dep.direction));
          depArr.emplace_back(std::move(dobj));
        }
        lo.emplace("dependences", std::move(depArr));
        json::Array scArr;
        for (const auto &s : L.scalars) {
          json::Object sobj;
          sobj.emplace("name", s.display);
          sobj.emplace("class", ir::name(s.cls));
          if (!s.op.empty()) sobj.emplace("op", s.op);
          sobj.emplace("shared", s.shared);
          scArr.emplace_back(std::move(sobj));
        }
        lo.emplace("scalars", std::move(scArr));
        loopArr.emplace_back(std::move(lo));
      }
      fo.emplace("loops", std::move(loopArr));
      fnArr.emplace_back(std::move(fo));
    }
    uo.emplace("functions", std::move(fnArr));
    unitArr.emplace_back(std::move(uo));
  }
  root.emplace("units", std::move(unitArr));
  return json::Value(std::move(root));
}

RangeReport rangeCodebase(const db::Codebase &codebase) {
  RangeReport report;
  report.app = codebase.app;
  report.model = codebase.model;
  report.units.resize(codebase.commands.size());
  parallelFor(
      codebase.commands.size(),
      [&](usize i) {
        const auto lowered = db::lowerParsed(db::parseUnit(codebase, codebase.commands[i]));
        auto &unit = report.units[i];
        unit.file = lowered.file;
        const ir::ModuleFacts facts(lowered.module);
        const auto mr = ir::analyzeModuleRanges(facts);
        for (const auto &fn : lowered.module.functions) {
          if (fn.role == ir::FunctionRole::Runtime) continue;
          const auto *fr = mr.rangesOf(fn.name);
          if (!fr) continue;
          RangeFunction rf;
          rf.function = fn.name;
          for (const auto &a : fr->argRanges) rf.argRanges.push_back(a.str());
          rf.returnRange = fr->returnRange.str();
          rf.rounds = fr->rounds;
          unit.functions.push_back(std::move(rf));
        }
        unit.diags = lint::runRange(facts, &mr);
      },
      0, "range-units");
  return report;
}

usize RangeReport::diagCount() const {
  usize n = 0;
  for (const auto &u : units) n += u.diags.size();
  return n;
}

std::string RangeReport::renderText() const {
  std::string out = app + "/" + model + ": " + std::to_string(diagCount()) +
                    " range finding(s)\n";
  for (const auto &u : units) {
    if (u.functions.empty() && u.diags.empty()) continue;
    out += u.file + "\n";
    for (const auto &f : u.functions) {
      out += "  " + f.function + "(";
      for (usize i = 0; i < f.argRanges.size(); ++i) {
        if (i) out += ", ";
        out += f.argRanges[i];
      }
      out += ") -> " + f.returnRange + " (rounds " + std::to_string(f.rounds) + ")\n";
    }
    for (const auto &d : u.diags) {
      out += "  line " + std::to_string(d.loc.line) + ": " +
             std::string(lint::name(d.severity)) + " [" +
             std::string(lint::name(d.check)) + "] " + d.message + "\n";
    }
  }
  return out;
}

json::Value RangeReport::toJson() const {
  json::Object root;
  root.emplace("app", app);
  root.emplace("model", model);
  root.emplace("findings", diagCount());
  json::Array unitArr;
  for (const auto &u : units) {
    json::Object uo;
    uo.emplace("file", u.file);
    json::Array fnArr;
    for (const auto &f : u.functions) {
      json::Object fo;
      fo.emplace("function", f.function);
      json::Array args;
      for (const auto &a : f.argRanges) args.emplace_back(a);
      fo.emplace("args", std::move(args));
      fo.emplace("return", f.returnRange);
      fo.emplace("rounds", f.rounds);
      fnArr.emplace_back(std::move(fo));
    }
    uo.emplace("functions", std::move(fnArr));
    json::Array diagArr;
    for (const auto &d : u.diags) {
      json::Object dobj;
      dobj.emplace("check", lint::name(d.check));
      dobj.emplace("severity", lint::name(d.severity));
      dobj.emplace("line", static_cast<i64>(d.loc.line));
      dobj.emplace("symbol", d.symbol);
      dobj.emplace("function", d.directive);
      dobj.emplace("message", d.message);
      diagArr.emplace_back(std::move(dobj));
    }
    uo.emplace("diagnostics", std::move(diagArr));
    unitArr.emplace_back(std::move(uo));
  }
  root.emplace("units", std::move(unitArr));
  return json::Value(std::move(root));
}

namespace {

/// Materialise the ports and index them through ONE db::indexBatch call:
/// the units of every port become one `db-index` for-each (each task runs
/// frontend→trees→lower→sign for one unit), so no port-level barrier
/// remains and a slow port's tail unit never idles the workers.
std::vector<db::CodebaseDb> indexPorts(const std::vector<std::pair<std::string, std::string>> &jobs,
                                       const IndexAppOptions &options) {
  std::vector<db::Codebase> codebases;
  codebases.reserve(jobs.size());
  for (const auto &[app, model] : jobs) codebases.push_back(corpus::make(app, model));
  db::IndexOptions idx;
  idx.runCoverage = options.coverage;
  idx.threads = options.threads;

  std::vector<const db::Codebase *> ptrs;
  for (const auto &cb : codebases) ptrs.push_back(&cb);
  auto results = db::indexBatch(ptrs, idx);
  std::vector<db::CodebaseDb> out;
  out.reserve(results.size());
  for (auto &r : results) out.push_back(std::move(r.db));
  return out;
}

} // namespace

IndexedApp indexApp(const std::string &app, const IndexAppOptions &options) {
  IndexedApp out;
  out.app = app;
  const auto names = options.models.empty() ? corpus::modelsOf(app) : options.models;
  std::vector<std::pair<std::string, std::string>> jobs;
  for (const auto &name : names) jobs.emplace_back(app, name);
  out.models = indexPorts(jobs, options);
  return out;
}

std::vector<CorpusPort> indexAllPorts(const IndexAppOptions &options) {
  std::vector<std::pair<std::string, std::string>> jobs;
  for (const auto &app : corpus::appNames())
    for (const auto &model : corpus::modelsOf(app)) jobs.emplace_back(app, model);

  auto dbs = indexPorts(jobs, options);
  std::vector<CorpusPort> out(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    out[i].label = jobs[i].first + "/" + jobs[i].second;
    out[i].db = std::move(dbs[i]);
  }
  return out;
}

namespace {

/// The shared matrix builder behind divergenceMatrix (radius = 0, exact)
/// and portMatrix (radius-capped filter-and-refine). Entries are
/// max(d(a,b), d(b,a)) normalised; with radius > 0, a direction whose
/// normalised divergence provably reaches the radius caps the whole entry
/// at exactly `radius` (skipping the reverse direction — the max is
/// already determined).
analysis::DistanceMatrix boundedMatrix(std::vector<std::string> labels,
                                       const std::vector<const db::CodebaseDb *> &dbs,
                                       metrics::Metric metric, metrics::Variant variant,
                                       const tree::TedOptions &ted, double radius,
                                       metrics::QueryStats *stats) {
  analysis::DistanceMatrix m;
  m.labels = std::move(labels);
  const usize n = dbs.size();
  m.values.assign(n * n, 0.0);

  const bool filter =
      radius > 0 && metrics::isTreeMetric(metric) && !variant.coverage;

  std::vector<std::pair<usize, usize>> pairs;
  for (usize i = 0; i < n; ++i)
    for (usize j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  std::vector<double> results(pairs.size());
  std::vector<metrics::QueryStats> pairStats(pairs.size());

  // A directed evaluation: exact when not filtering, else bounded with the
  // radius converted to a raw cutoff via this direction's dmaxSym. Returns
  // the normalised divergence, or `radius` exactly when pruned.
  const auto directed = [&](usize from, usize to, metrics::QueryStats &st) {
    if (!filter) {
      const auto d = metrics::diverge(*dbs[from], *dbs[to], metric, variant, ted);
      const double norm = d.normalised();
      return radius > 0 ? std::min(norm, radius) : norm;
    }
    const auto bounds = metrics::candidateBounds(*dbs[from], *dbs[to], metric, variant, ted.costs);
    // Integer distances: d >= radius*dmax  <=>  d >= ceil(radius*dmax), so
    // pruning at this cutoff is exactly "normalised >= radius".
    const u64 cut =
        static_cast<u64>(std::ceil(radius * static_cast<double>(bounds.base.dmaxSym)));
    const auto bd = metrics::divergeBounded(bounds, ted, cut);
    st.count(bd.outcome);
    return bd.outcome == metrics::FilterOutcome::Exact ? bd.divergence.normalised() : radius;
  };

  // One full entry: both directions, max, radius-capping. With the engine
  // on, dij computes the unit-pair TEDs and dji replays them from the
  // symmetric pair memo; only the accounting differs.
  const auto pairBody = [&](usize p) {
    const auto [i, j] = pairs[p];
    const double dij = directed(i, j, pairStats[p]);
    if (filter && dij >= radius) {
      results[p] = radius; // the max over directions is already decided
      return;
    }
    results[p] = std::max(dij, directed(j, i, pairStats[p]));
  };
  parallelFor(pairs.size(), pairBody, 0, "matrix-pairs");
  for (usize p = 0; p < pairs.size(); ++p) {
    m.set(pairs[p].first, pairs[p].second, results[p]);
    if (stats) *stats += pairStats[p];
  }
  return m;
}

} // namespace

analysis::DistanceMatrix divergenceMatrix(const IndexedApp &app, metrics::Metric metric,
                                          metrics::Variant variant,
                                          const tree::TedOptions &ted) {
  std::vector<const db::CodebaseDb *> dbs;
  for (const auto &m : app.models) dbs.push_back(&m);
  return boundedMatrix(app.modelNames(), dbs, metric, variant, ted, /*radius=*/0, nullptr);
}

analysis::DistanceMatrix portMatrix(const std::vector<CorpusPort> &ports, metrics::Metric metric,
                                    metrics::Variant variant, const tree::TedOptions &ted,
                                    double radius, metrics::QueryStats *stats) {
  SV_CHECK(radius >= 0 && radius <= 1, "portMatrix: radius must lie in [0, 1]");
  std::vector<std::string> labels;
  std::vector<const db::CodebaseDb *> dbs;
  for (const auto &p : ports) {
    labels.push_back(p.label);
    dbs.push_back(&p.db);
  }
  return boundedMatrix(std::move(labels), dbs, metric, variant, ted, radius, stats);
}

analysis::DistanceMatrix absoluteDifferenceMatrix(const IndexedApp &app, metrics::Metric metric,
                                                  metrics::Variant variant) {
  std::vector<double> values;
  for (const auto &m : app.models)
    values.push_back(static_cast<double>(metrics::absolute(m, metric, variant)));
  return analysis::buildMatrix(app.modelNames(), [&](usize i, usize j) {
    return std::abs(values[i] - values[j]);
  });
}

std::vector<perf::KernelWork> paperDeck(const std::string &app) {
  // Measure per-kernel mixes from the serial port's IR.
  const auto serialName = app == "babelstream-fortran" ? "sequential" : "serial";
  const auto cb = corpus::make(app, serialName);

  std::vector<perf::KernelWork> kernels;
  // Lower via linkForExecution (whole program) and pick loop-bearing user
  // functions as kernels.
  const auto merged = db::linkForExecution(cb);
  const auto module = ir::lower(merged, {});

  u64 iterations = 0;
  if (app == "babelstream" || app == "babelstream-fortran") {
    iterations = u64{1} << 25;              // 2^25 elements (the default deck)
    iterations *= 100;                      // 100 timesteps
  } else if (app == "tealeaf") {
    iterations = u64{4000} * 4000;          // BM5 grid
    iterations *= 4 * 30;                   // 4 steps x ~30 CG iterations
  } else if (app == "cloverleaf") {
    iterations = u64{3840} * 3840;          // BM64 grid
    iterations *= 300;                      // 300 iterations (Section VI)
  } else if (app == "minibude") {
    iterations = u64{65536} * 8 * 16;       // poses x ligand x protein atoms
  } else {
    internalError("paperDeck: unknown app " + app);
  }

  const auto isHostOnly = [](const std::string &name) {
    // Setup and validation routines run on the host outside the timed
    // region of every real miniapp; they are not kernels.
    for (const auto *tag : {"main", "check", "init", "summary", "residual", "deck"})
      if (name.find(tag) != std::string::npos) return true;
    return false;
  };
  for (const auto &f : module.functions) {
    if (f.role != ir::FunctionRole::User) continue;
    const auto mix = ir::functionMix(f);
    // Kernels: functions that loop over data (branches) and touch memory.
    if (mix.branches == 0 || mix.bytes() == 0) continue;
    if (isHostOnly(f.name)) continue;
    perf::KernelWork k;
    k.name = f.name;
    k.mixPerIter = mix;
    k.iterations = iterations;
    kernels.push_back(std::move(k));
  }
  SV_CHECK(!kernels.empty(), "paperDeck: no kernels found for " + app);
  return kernels;
}

std::vector<std::pair<std::string, ir::Model>> perfModels(const IndexedApp &app) {
  std::vector<std::pair<std::string, ir::Model>> out;
  for (const auto &m : app.models) out.emplace_back(m.model, m.modelKind);
  return out;
}

std::vector<perf::NavPoint> navigationPoints(const IndexedApp &app) {
  const auto serialName = app.app == "babelstream-fortran" ? "sequential" : "serial";
  const auto &serial = app.model(serialName);
  const auto kernels = paperDeck(app.app);
  const auto perfs = perf::simulateAll(perfModels(app), kernels);

  std::vector<perf::NavPoint> points;
  for (usize i = 0; i < app.models.size(); ++i) {
    const auto &m = app.models[i];
    if (m.model == serialName) continue;
    perf::NavPoint p;
    p.model = m.model;
    p.phiValue = perf::phi(perfs[i].efficiency);
    // Routed through the TED engine: the serial baseline's views are built
    // once and reused across every port's Tsem/Tsrc divergence.
    p.tsem = metrics::diverge(serial, m, metrics::Metric::Tsem).normalised();
    p.tsrc = metrics::diverge(serial, m, metrics::Metric::Tsrc).normalised();
    points.push_back(std::move(p));
  }
  return points;
}

} // namespace sv::silvervale
