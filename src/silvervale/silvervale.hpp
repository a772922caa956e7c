// SilverVale top-level API: the end-to-end workflow of Fig 2. A miniapp is
// indexed across all of its model ports (in parallel — the TED pairs
// dominate runtime), divergence matrices are computed over the cartesian
// product of models, and the perf simulator supplies the Φ side of the
// navigation charts.
#pragma once

#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "ir/deps.hpp"
#include "lint/lint.hpp"
#include "metrics/metrics.hpp"
#include "metrics/query.hpp"
#include "perf/perf.hpp"

namespace sv::silvervale {

/// A miniapp indexed across all its model ports.
struct IndexedApp {
  std::string app;
  std::vector<db::CodebaseDb> models;

  [[nodiscard]] const db::CodebaseDb &model(const std::string &name) const;
  [[nodiscard]] std::vector<std::string> modelNames() const;
};

struct IndexAppOptions {
  /// Run every port in the VM and store line coverage in its DB.
  bool coverage = false;
  /// Restrict to these models (empty = all registered ports).
  std::vector<std::string> models;
  /// Worker count for the `db-index` node (0 = configured/SV_THREADS/hardware).
  usize threads = 0;
};

/// Index one corpus app across its ports. Throws on corpus errors (which
/// are bugs: the corpus must always compile and verify).
[[nodiscard]] IndexedApp indexApp(const std::string &app, const IndexAppOptions &options = {});

/// Pairwise normalised divergence matrix over all models of `app` under
/// `metric` — the input to the Fig 4/5/6 clusterings. Symmetrised as
/// max(d(a,b), d(b,a)) normalised. TED pairs route through the shared-view
/// engine by default (`ted.useCache`): views are built once per tree, the
/// d(a,b)/d(b,a) TED work is shared via the symmetric pair memo, and only
/// the asymmetric dmax/unmatched accounting runs twice. Pass
/// `ted.useCache = false` to force the uncached reference path (the
/// engine-off arm of bench/ted_bench.cpp).
[[nodiscard]] analysis::DistanceMatrix divergenceMatrix(const IndexedApp &app,
                                                        metrics::Metric metric,
                                                        metrics::Variant variant = {},
                                                        const tree::TedOptions &ted = {});

/// One indexed port of the cross-app corpus, labelled "app/model".
struct CorpusPort {
  std::string label;
  db::CodebaseDb db;
};

/// Index every registered port of every corpus app (the 46 embedded ports),
/// in parallel. The flat list backs `svale cluster all` and the query-layer
/// benches, where candidates span apps rather than one app's models.
[[nodiscard]] std::vector<CorpusPort> indexAllPorts(const IndexAppOptions &options = {});

/// Symmetrised normalised divergence matrix over arbitrary ports, through
/// the filter-and-refine query layer. With `radius` == 0 every pair is
/// exact (the same values divergenceMatrix produces). With `radius` > 0
/// each direction runs metrics::divergeBounded with cutoff
/// ceil(radius * dmaxSym): pairs whose normalised divergence provably
/// reaches `radius` are capped at exactly `radius` (signature bounds prune
/// many without any DP), while every entry below it stays exact — which is
/// all k-medoids / complete-linkage need when clusters live below the
/// radius. `radius` is a normalised divergence and must lie in [0, 1].
/// `stats` (optional) accumulates filter effectiveness per direction
/// evaluated.
[[nodiscard]] analysis::DistanceMatrix portMatrix(const std::vector<CorpusPort> &ports,
                                                  metrics::Metric metric,
                                                  metrics::Variant variant = {},
                                                  const tree::TedOptions &ted = {},
                                                  double radius = 0,
                                                  metrics::QueryStats *stats = nullptr);

/// For the SLOC/LLOC pseudo-clustering of Fig 5/6: absolute values per
/// model turned into |a - b| distances.
[[nodiscard]] analysis::DistanceMatrix absoluteDifferenceMatrix(const IndexedApp &app,
                                                                metrics::Metric metric,
                                                                metrics::Variant variant = {});

/// The benchmark decks of Section VI, as kernel workloads for the perf
/// simulator. Instruction mixes are measured from the *serial* port's IR;
/// trip counts follow the paper's decks (BabelStream 2^25 x 100, TeaLeaf
/// BM5, CloverLeaf BM64 at 300 iterations, miniBUDE 64k poses).
[[nodiscard]] std::vector<perf::KernelWork> paperDeck(const std::string &app);

/// Model list of an app as (displayName, ir::Model) pairs for simulateAll.
[[nodiscard]] std::vector<std::pair<std::string, ir::Model>>
perfModels(const IndexedApp &app);

/// Navigation-chart points (Fig 13/14): Φ over the Table III platforms
/// against normalised T_sem / T_src divergence from the serial port.
[[nodiscard]] std::vector<perf::NavPoint> navigationPoints(const IndexedApp &app);

struct LintOptions {
  /// Also lower each unit and run the IR-tier checks (lint::runIr): CFG +
  /// dataflow over the backend module — uninitialised use, dead stores,
  /// unreachable blocks, redundant/stale device transfers. Off by default:
  /// the AST tier alone needs no lowering.
  bool ir = false;
  /// Also run the dependence tier (lint::runDeps): loop-carried-race /
  /// missed-reduction / missed-privatization / provably-parallel verdicts
  /// from the subscript dependence tests over the lowered IR.
  bool deps = false;
  /// Also run the value-range tier (lint::runRange): out-of-bounds /
  /// division-by-zero / dead-branch / zero-trip-loop verdicts from the
  /// interprocedural interval analysis over the SSA overlay.
  bool range = false;
  /// Worker count for the per-unit `lint-units` node (0 = configured
  /// default). Unit order in the report is input order at any count.
  usize threads = 0;
};

/// Run the linter over every translation unit of a codebase (frontend only
/// unless `options.ir` adds the lowering pass — never trees or the VM) and
/// aggregate the diagnostics into a renderable report. Backs `svale lint` /
/// `svale lint-dir` and the corpus-wide lint-clean regression tests.
[[nodiscard]] lint::Report lintCodebase(const db::Codebase &codebase,
                                        const LintOptions &options = {});

/// Per-loop dependence analysis of one port, for `svale deps <app> [model]`:
/// every unit lowered, every function's loop nests recovered, subscript
/// tests and scalar classification run (ir/deps.hpp). renderText shows one
/// indented line per loop with its verdict, dependences, and scalars.
struct DepsUnit {
  std::string file;
  ir::ModuleDeps deps;
};

struct DepsReport {
  std::string app;
  std::string model;
  std::vector<DepsUnit> units;

  [[nodiscard]] usize loopCount() const;
  [[nodiscard]] usize provablyParallelCount() const;
  [[nodiscard]] std::string renderText() const;
  [[nodiscard]] json::Value toJson() const;
};

[[nodiscard]] DepsReport depsCodebase(const db::Codebase &codebase);

/// Per-function value-range summary of one port, for `svale range <app>
/// [model]`: each unit lowered, the interprocedural analysis run, and every
/// non-runtime function reported with its argument ranges, return range,
/// and fixpoint round count (plus the tier's diagnostics for the unit).
struct RangeFunction {
  std::string function;
  std::vector<std::string> argRanges; ///< rendered intervals, by position
  std::string returnRange;            ///< rendered interval, "none" for void
  usize rounds = 0;                   ///< fixpoint rounds until convergence
};

struct RangeUnit {
  std::string file;
  std::vector<RangeFunction> functions;
  std::vector<lint::Diagnostic> diags; ///< lint::runRange findings
};

struct RangeReport {
  std::string app;
  std::string model;
  std::vector<RangeUnit> units;

  [[nodiscard]] usize diagCount() const;
  [[nodiscard]] std::string renderText() const;
  [[nodiscard]] json::Value toJson() const;
};

[[nodiscard]] RangeReport rangeCodebase(const db::Codebase &codebase);

} // namespace sv::silvervale
