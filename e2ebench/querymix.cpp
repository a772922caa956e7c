// query_mix: the `.svdb` read path and the metric-space query layer. Set-up
// indexes the 46 ports and keeps only their serialised bytes. A pass
// deserialises them, builds the radius-capped Tsrc/Tsem/Tir port matrices
// with k-medoids, then answers a top-k query per (port, Tsem) and two range
// queries per (port, Tsrc|Tsem), in seeded order — TED in cutoff mode, mostly
// settled by signature bounds or early abandon. Top-k over Tsrc is left out:
// it alone costs more than the rest of a pass.
#include "layers.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace sv;

namespace {

constexpr double kRadius = 0.05;      ///< normalised radius of the port matrices
constexpr usize kK = 5;               ///< top-k size and k-medoids cluster count
/// Range radii as shares of the query port's tree size. Range queries
/// outnumber top-k ones four to one, so the op median falls inside the
/// (cheap) range population and the p95 inside the (costly) top-k one.
constexpr double kRangeShares[] = {0.05, 0.1};
constexpr metrics::Metric kMatrixMetrics[] = {metrics::Metric::Tsrc, metrics::Metric::Tsem,
                                              metrics::Metric::Tir};
constexpr metrics::Metric kQueryMetrics[] = {metrics::Metric::Tsrc, metrics::Metric::Tsem};
constexpr metrics::Metric kTopKMetric = metrics::Metric::Tsem;

struct Query {
  usize port = 0;
  metrics::Metric metric{};
  bool topK = true;
  u64 radius = 0; ///< raw distance, range queries only

  [[nodiscard]] std::string key() const {
    return (topK ? "query.topk." : "query.range" + std::to_string(radius) + ".") +
           std::to_string(port) + "." + std::string(metrics::metricName(metric));
  }
};

/// Every query the mix can ask, in canonical order. A range radius is a
/// fixed share of the query port's total tree size under the metric.
std::vector<Query> allQueries(const std::vector<silvervale::CorpusPort> &ports) {
  std::vector<Query> out;
  for (usize p = 0; p < ports.size(); ++p)
    for (const auto metric : kQueryMetrics) {
      u64 size = 0;
      for (const auto &u : ports[p].db.units) size += metrics::metricSignature(u, metric).n;
      if (metric == kTopKMetric) out.push_back({p, metric, true, 0});
      for (const double share : kRangeShares)
        out.push_back({p, metric, false, static_cast<u64>(share * static_cast<double>(size))});
    }
  return out;
}

class QueryMix final : public Workload {
public:
  void setup(const std::string &answersDir, u64 seed) override {
    answers_ = {};
    if (!answersDir.empty() && !answers_.load(answersDir + "/query_mix.txt"))
      throw std::runtime_error("query_mix: no known answers in " + answersDir);
    // One worker: the 4-worker index is contended enough that its time
    // swings with machine load, and set-up time is a gated metric.
    silvervale::IndexAppOptions index;
    index.threads = 1;
    const auto ports = silvervale::indexAllPorts(index);
    labels_.clear();
    bytes_.clear();
    for (const auto &p : ports) {
      labels_.push_back(p.label);
      bytes_.push_back(p.db.serialise());
    }
    queries_ = allQueries(ports);
    shuffle(queries_, mix64(seed ^ 0x71756572ULL));
  }

  void pass(PassCtx &ctx) override {
    std::vector<silvervale::CorpusPort> ports(bytes_.size());
    {
      PassCtx::Phase phase(ctx, "phase.load");
      ctx.op("op.load", [&] {
        for (usize i = 0; i < bytes_.size(); ++i) {
          ports[i].label = labels_[i];
          ports[i].db =
              traced("db.deserialise", [&] { return db::CodebaseDb::deserialise(bytes_[i]); });
          ctx.counters["db.bytes"] += static_cast<double>(bytes_[i].size());
        }
      }, false);
    }
    std::vector<const db::CodebaseDb *> corpus;
    for (const auto &p : ports) corpus.push_back(&p.db);

    metrics::QueryStats stats;
    {
      PassCtx::Phase phase(ctx, "phase.radius_matrices");
      for (const auto metric : kMatrixMetrics) {
        const std::string name(metrics::metricName(metric));
        if (ctx.traced())
          ctx.op("ted.view", [&] { layers::buildViews(corpus, metric); }, false);
        analysis::DistanceMatrix m;
        if (!ctx.op("ted.dp", [&] {
              m = silvervale::portMatrix(ports, metric, {}, {}, kRadius, &stats);
            }, false))
          continue;
        ctx.expect("query.radius_matrix." + name, renderMatrix(m));
        ctx.op("cluster", [&] {
          ctx.expect("query.medoids." + name, renderIndices(analysis::kMedoids(m, kK).medoids));
        }, false);
      }
    }
    {
      PassCtx::Phase phase(ctx, "phase.queries");
      for (const auto &q : queries_) {
        std::vector<metrics::Neighbor> result;
        if (!ctx.op("query", [&] {
              result = q.topK ? metrics::topKDivergence(*corpus[q.port], corpus, kK, q.metric, {},
                                                        {}, {}, &stats)
                              : metrics::rangeDivergence(*corpus[q.port], corpus, q.radius,
                                                         q.metric, {}, {}, {}, &stats);
            }))
          continue;
        ctx.expect(q.key(), renderNeighbors(result));
      }
    }
    ctx.counters["query.candidates"] += static_cast<double>(stats.candidates);
    ctx.counters["query.exact_refines"] += static_cast<double>(stats.exact);
    ctx.counters["query.filter_rate"] = stats.filterRate();
  }

  /// 230 queries a pass: at three passes p95 keeps 34 samples beyond it.
  [[nodiscard]] double tailPercentile() const override { return 0.95; }

  void generate(Answers &out) override {
    const auto ted = referenceTed();
    const auto ports = silvervale::indexAllPorts();
    for (const auto metric : kMatrixMetrics) {
      const std::string name(metrics::metricName(metric));
      const auto m = silvervale::portMatrix(ports, metric, {}, ted, kRadius);
      out.values["query.radius_matrix." + name] = renderMatrix(m);
      out.values["query.medoids." + name] = renderIndices(analysis::kMedoids(m, kK).medoids);
    }
    // Brute force: every exact divergence, then sort — what top-k and range
    // must reproduce without evaluating most of them.
    const usize n = ports.size();
    std::map<metrics::Metric, std::vector<metrics::Divergence>> all;
    for (const auto metric : kQueryMetrics) {
      auto &d = all[metric];
      d.resize(n * n);
      parallelFor(n * n, [&](usize k) {
        d[k] = metrics::diverge(ports[k / n].db, ports[k % n].db, metric, {}, ted);
      });
    }
    for (const auto &q : allQueries(ports)) {
      std::vector<metrics::Neighbor> ranked;
      for (usize c = 0; c < n; ++c) {
        const auto &d = all[q.metric][q.port * n + c];
        if (q.topK || d.distance <= q.radius) ranked.push_back({c, d.distance, d.normalised()});
      }
      std::stable_sort(ranked.begin(), ranked.end(), [](const auto &a, const auto &b) {
        return a.distance != b.distance ? a.distance < b.distance : a.index < b.index;
      });
      if (q.topK && ranked.size() > kK) ranked.resize(kK);
      out.values[q.key()] = renderNeighbors(ranked);
    }
  }

private:
  std::vector<std::string> labels_;
  std::vector<std::vector<u8>> bytes_;
  std::vector<Query> queries_;
};

} // namespace

std::unique_ptr<Workload> makeQueryMix() { return std::make_unique<QueryMix>(); }

} // namespace e2e
