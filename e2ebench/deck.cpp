// paper_deck: the paper's own batch workload, one cold pass. Index all 46
// ports and serialise every DB; per app the Tsrc/Tsem/Tir divergence
// matrices, their complete-linkage clusterings, the perf simulation with
// its cascade series and the navigation points; then the 46-port Tsem
// matrix and its k-medoids.
#include "corpus/corpus.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace sv;

namespace {

constexpr metrics::Metric kAppMetrics[] = {metrics::Metric::Tsrc, metrics::Metric::Tsem,
                                           metrics::Metric::Tir};
constexpr usize kPortClusters = 5;

/// silvervale::navigationPoints with an explicit TED configuration (the
/// library's version always uses the engine).
std::vector<perf::NavPoint> navPoints(const silvervale::IndexedApp &app,
                                      const tree::TedOptions &ted) {
  const auto serialName = app.app == "babelstream-fortran" ? "sequential" : "serial";
  const auto &serial = app.model(serialName);
  const auto perfs =
      perf::simulateAll(silvervale::perfModels(app), silvervale::paperDeck(app.app));
  std::vector<perf::NavPoint> points;
  for (usize i = 0; i < app.models.size(); ++i) {
    const auto &m = app.models[i];
    if (m.model == serialName) continue;
    perf::NavPoint p;
    p.model = m.model;
    p.phiValue = perf::phi(perfs[i].efficiency);
    p.tsem = metrics::diverge(serial, m, metrics::Metric::Tsem, {}, ted).normalised();
    p.tsrc = metrics::diverge(serial, m, metrics::Metric::Tsrc, {}, ted).normalised();
    points.push_back(std::move(p));
  }
  return points;
}

std::string renderNav(const std::vector<perf::NavPoint> &points) {
  std::string out;
  for (const auto &p : points)
    out += p.model + ":" + fmt(p.phiValue) + ":" + fmt(p.tsem) + ":" + fmt(p.tsrc) + " ";
  return out;
}

std::string renderCascades(const std::vector<perf::ModelPerformance> &perfs) {
  std::string out;
  for (const auto &p : perfs) {
    const auto c = perf::cascade(p);
    out += c.model + ":";
    for (usize i = 0; i < c.platformOrder.size(); ++i)
      out += c.platformOrder[i] + "=" + fmt(c.phiAfterK[i]) + ",";
    out += " ";
  }
  return out;
}

class Deck final : public Workload {
public:
  /// 22 ops a pass: at three passes p80 keeps 13 samples beyond it.
  [[nodiscard]] double tailPercentile() const override { return 0.80; }

  void setup(const std::string &answersDir, u64 seed) override {
    answers_ = {};
    if (!answersDir.empty() && !answers_.load(answersDir + "/paper_deck.txt"))
      throw std::runtime_error("paper_deck: no known answers in " + answersDir);
    // The task manifest: every port's generated sources, hashed, so a
    // changed corpus shows up as a wrong answer rather than as odd timings.
    u64 h = fnv1a("");
    for (const auto &app : corpus::appNames())
      for (const auto &model : corpus::modelsOf(app)) {
        const auto cb = corpus::make(app, model);
        for (const auto &f : cb.sources.files()) h = fnv1a(f.text, fnv1a(f.name, h));
        for (const auto &cmd : cb.commands)
          for (const auto &a : cmd.args) h = fnv1a(a, h);
      }
    manifest_ = std::to_string(h);
    apps_ = corpus::appNames();
    shuffle(apps_, mix64(seed));
  }

  void pass(PassCtx &ctx) override { run(ctx, {}, false); }

  void generate(Answers &out) override {
    PassCtx ctx(nullptr, &out, false);
    run(ctx, referenceTed(), true);
    if (ctx.failed) throw std::runtime_error("paper_deck: reference pass failed");
  }

private:
  void run(PassCtx &ctx, const tree::TedOptions &ted, bool reference) {
    // One op per `svale` command the deck amounts to: index, then per app
    // one heatmap per metric and one nav chart, then `cluster all`.
    ctx.expect("deck.manifest", manifest_);
    std::vector<silvervale::CorpusPort> ports;
    {
      PassCtx::Phase phase(ctx, "phase.index");
      ctx.op("op.index", [&] {
        ports = ctx.traced() ? layers::indexAllPorts(ctx) : silvervale::indexAllPorts();
        for (const auto &p : ports) {
          const auto bytes = traced("db.serialise", [&] { return p.db.serialise(); });
          ctx.counters["db.bytes"] += static_cast<double>(bytes.size());
          ctx.digestOnly("db." + p.label,
                         std::string(reinterpret_cast<const char *>(bytes.data()), bytes.size()));
        }
      });
    }

    // Per-app views over the indexed ports (moved, not copied; moved back
    // for the cross-app matrix).
    std::map<std::string, silvervale::IndexedApp> apps;
    std::vector<std::string> owner(ports.size());
    for (usize i = 0; i < ports.size(); ++i) {
      owner[i] = ports[i].db.app;
      auto &a = apps[owner[i]];
      a.app = owner[i];
      a.models.push_back(std::move(ports[i].db));
    }

    {
      PassCtx::Phase phase(ctx, "phase.app_matrices");
      for (const auto &name : apps_) {
        const auto &app = apps[name];
        std::vector<const db::CodebaseDb *> dbs;
        for (const auto &m : app.models) dbs.push_back(&m);
        for (const auto metric : kAppMetrics) {
          const std::string key = name + "." + std::string(metrics::metricName(metric));
          ctx.op("op.heatmap", [&] {
            if (ctx.traced()) traced("ted.view", [&] { layers::buildViews(dbs, metric); });
            const auto m = traced("ted.dp", [&] {
              return silvervale::divergenceMatrix(app, metric, {}, ted);
            });
            ctx.expect("deck.matrix." + key, renderMatrix(m));
            ctx.expect("deck.newick." + key, traced("cluster", [&] {
                         return analysis::toNewick(analysis::cluster(m), m.labels);
                       }));
          });
        }
      }
    }

    {
      PassCtx::Phase phase(ctx, "phase.nav");
      for (const auto &name : apps_) {
        const auto &app = apps[name];
        ctx.op("op.nav", [&] {
          Scope span("perf");
          const auto perfs = perf::simulateAll(silvervale::perfModels(app),
                                               silvervale::paperDeck(app.app));
          ctx.expect("deck.cascade." + name, renderCascades(perfs));
          const auto points = reference ? navPoints(app, ted) : silvervale::navigationPoints(app);
          ctx.expect("deck.nav." + name, renderNav(points));
        });
      }
    }

    std::map<std::string, usize> next;
    for (usize i = 0; i < ports.size(); ++i)
      ports[i].db = std::move(apps[owner[i]].models[next[owner[i]]++]);

    {
      PassCtx::Phase phase(ctx, "phase.port_matrix");
      ctx.op("op.cluster_all", [&] {
        if (ctx.traced()) {
          std::vector<const db::CodebaseDb *> dbs;
          for (const auto &p : ports) dbs.push_back(&p.db);
          traced("ted.view", [&] { layers::buildViews(dbs, metrics::Metric::Tsem); });
        }
        const auto pm = traced("ted.dp", [&] {
          return silvervale::portMatrix(ports, metrics::Metric::Tsem, {}, ted, 0);
        });
        ctx.expect("deck.port_matrix.Tsem", renderMatrix(pm));
        ctx.expect("deck.medoids.Tsem", traced("cluster", [&] {
                     return renderIndices(analysis::kMedoids(pm, kPortClusters).medoids);
                   }));
      });
    }
  }

  std::string manifest_;
  std::vector<std::string> apps_;
};

} // namespace

std::unique_ptr<Workload> makeDeck() { return std::make_unique<Deck>(); }

} // namespace e2e
