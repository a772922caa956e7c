// lint_stream: a closed loop of `svale lint` requests with every tier on, one
// request at a time. The requests are the 46 corpus ports plus seeded
// generated MiniC/MiniF programs, in seeded order. Corpus verdicts are
// checked against known answers; a generated program fails only if linting
// it throws (its findings, true positives included, are not failures).
#include "corpus/corpus.hpp"
#include "fuzz/generator.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace sv;

namespace {

constexpr usize kGenerated = 1000;

struct Request {
  std::string label; ///< "app/model", or "gen/<lang>/<seed>"
  bool generated = false;
  bool fortran = false;
  db::Codebase codebase;
};

/// The verdict summary checked per request: diagnostic counts per
/// (check, severity), plus totals. Message wording is not part of it.
std::string verdict(const lint::Report &r) {
  std::map<std::string, usize> hist;
  for (const auto &u : r.units)
    for (const auto &d : u.diags)
      ++hist[std::string(lint::name(d.check)) + "/" + lint::name(d.severity)];
  std::string out;
  for (const auto &[k, n] : hist) out += k + "=" + std::to_string(n) + " ";
  return out;
}

usize countCheck(const lint::Report &r, lint::Check check, lint::Severity sev) {
  usize n = 0;
  for (const auto &u : r.units)
    for (const auto &d : u.diags) n += d.check == check && d.severity == sev;
  return n;
}

class LintStream final : public Workload {
public:
  void setup(const std::string &answersDir, u64 seed) override {
    answers_ = {};
    if (!answersDir.empty() && !answers_.load(answersDir + "/lint_stream.txt"))
      throw std::runtime_error("lint_stream: no known answers in " + answersDir);
    requests_.clear();
    for (const auto &app : corpus::appNames())
      for (const auto &model : corpus::modelsOf(app))
        requests_.push_back({app + "/" + model, false, false, corpus::make(app, model)});
    for (usize i = 0; i < kGenerated; ++i) {
      const u64 s = mix64(seed * 0x100000001b3ULL + i);
      fuzz::GenOptions opts;
      opts.lang = (s >> 7) & 1 ? fuzz::Lang::MiniF : fuzz::Lang::MiniC;
      opts.seed = s;
      const auto p = fuzz::generate(opts);
      Request r;
      r.label = std::string("gen/") + fuzz::langName(p.lang) + "/" + std::to_string(s);
      r.generated = true;
      r.fortran = p.lang == fuzz::Lang::MiniF;
      r.codebase.app = "fuzz";
      r.codebase.model = p.model;
      r.codebase.addFile(p.fileName, p.source);
      db::CompileCommand cmd;
      cmd.file = p.fileName;
      cmd.args = {"cc", p.fileName};
      if (p.model == "omp") cmd.args.push_back("-fopenmp");
      r.codebase.commands.push_back(std::move(cmd));
      requests_.push_back(std::move(r));
    }
    order_.resize(requests_.size());
    for (usize i = 0; i < order_.size(); ++i) order_[i] = i;
    shuffle(order_, mix64(seed ^ 0x6c696e74ULL));
  }

  void pass(PassCtx &ctx) override { run(ctx, order_); }

  /// 1046 requests a pass: at three passes p99 keeps 31 samples beyond it.
  [[nodiscard]] double tailPercentile() const override { return 0.99; }

  void traceCounters(PassCtx &ctx) override {
    // Loop counts of the corpus, from the library's own per-loop report
    // (lint verdicts only name the loops that get a finding).
    double loops = 0, parallel = 0;
    for (const auto &r : requests_) {
      if (r.generated) continue;
      const auto deps = silvervale::depsCodebase(r.codebase);
      loops += static_cast<double>(deps.loopCount());
      parallel += static_cast<double>(deps.provablyParallelCount());
    }
    ctx.counters["lint.loops"] = loops;
    // `svale deps` verdicts run under value ranges; the lint tier does not,
    // so this count is the higher one.
    ctx.counters["lint.deps_provably_parallel"] = parallel;
  }

  void generate(Answers &out) override {
    PassCtx ctx(nullptr, &out, false);
    std::vector<usize> corpusOnly;
    for (usize i = 0; i < requests_.size(); ++i)
      if (!requests_[i].generated) corpusOnly.push_back(i);
    run(ctx, corpusOnly);
    if (ctx.failed) throw std::runtime_error("lint_stream: reference pass failed");
  }

private:
  void run(PassCtx &ctx, const std::vector<usize> &order) {
    silvervale::LintOptions options;
    options.ir = options.deps = options.range = true;
    usize corpusErrors = 0, corpusParallel = 0;
    PassCtx::Phase phase(ctx, "phase.lint");
    for (const usize i : order) {
      const auto &r = requests_[i];
      lint::Report report;
      if (!ctx.op("op.lint", [&] {
            report = ctx.traced() ? layers::lintCodebase(r.codebase, ctx)
                                  : silvervale::lintCodebase(r.codebase, options);
          }))
        continue;
      const auto v = verdict(report);
      const usize parallel =
          countCheck(report, lint::Check::ProvablyParallel, lint::Severity::Note);
      ctx.counters["lint.provably_parallel"] += static_cast<double>(parallel);
      for (const auto &u : report.units)
        ctx.counters["lint.diags"] += static_cast<double>(u.diags.size());
      if (r.generated) {
        ctx.digestOnly("lint." + r.label, v);
        // Generated MiniF programs read uninitialised locals (a generator
        // bug, see README.md): true positives, recorded but not failures.
        if (r.fortran)
          ctx.counters["lint.gen_uninit_errors"] += static_cast<double>(
              countCheck(report, lint::Check::UninitUse, lint::Severity::Error));
      } else {
        ctx.expect("lint." + r.label, v);
        corpusErrors += report.count(lint::Severity::Error);
        corpusParallel += parallel;
      }
    }
    ctx.expect("lint.corpus.total", "errors=" + std::to_string(corpusErrors) +
                                        " provably_parallel=" + std::to_string(corpusParallel));
  }

  std::vector<Request> requests_;
  std::vector<usize> order_;
};

} // namespace

std::unique_ptr<Workload> makeLintStream() { return std::make_unique<LintStream>(); }

} // namespace e2e
