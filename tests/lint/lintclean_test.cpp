// Corpus-wide lint regression: every shipped port of every miniapp must be
// error-free. The ports are real, verified implementations — any error
// here is a linter false positive, which destroys the tool's value faster
// than a false negative does.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "ir/lower.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/rangelint.hpp"
#include "silvervale/silvervale.hpp"

using namespace sv;

TEST(LintClean, EveryCorpusPortIsErrorFree) {
  usize ports = 0;
  for (const auto &app : corpus::appNames()) {
    for (const auto &model : corpus::modelsOf(app)) {
      const auto report = silvervale::lintCodebase(corpus::make(app, model));
      EXPECT_EQ(report.count(lint::Severity::Error), 0u)
          << app << "/" << model << ":\n" << report.renderText();
      EXPECT_FALSE(report.hasErrors()) << app << "/" << model;
      ++ports;
    }
  }
  EXPECT_GE(ports, 40u); // the full registry, not a subset
}

TEST(LintClean, DirectiveHeavyPortsAreFullyClean) {
  // The ports that exercise every check (OpenMP host, OpenMP offload,
  // OpenACC) stay warning-free too, so a new check that regresses the
  // corpus is caught even at Warning severity.
  const std::pair<const char *, const char *> ports[] = {
      {"tealeaf", "omp"},          {"tealeaf", "omp-target"},
      {"babelstream", "omp"},      {"babelstream", "omp-target"},
      {"babelstream-fortran", "omp"}, {"babelstream-fortran", "acc"},
      {"babelstream-fortran", "acc-array"},
  };
  for (const auto &[app, model] : ports) {
    const auto report = silvervale::lintCodebase(corpus::make(app, model));
    EXPECT_EQ(report.count(lint::Severity::Error), 0u)
        << app << "/" << model << ":\n" << report.renderText();
    EXPECT_EQ(report.count(lint::Severity::Warning), 0u)
        << app << "/" << model << ":\n" << report.renderText();
  }
}

TEST(LintClean, EveryCorpusPortIsIrClean) {
  // Same contract one tier down: with the IR checks enabled, every port
  // must stay error-free — and in fact the IR tier emits *nothing* on the
  // corpus (the exemption rules in lint::runIr are tuned so that real,
  // verified ports produce zero IR diagnostics of any severity).
  const silvervale::LintOptions withIr{.ir = true};
  usize ports = 0;
  for (const auto &app : corpus::appNames()) {
    for (const auto &model : corpus::modelsOf(app)) {
      const auto report = silvervale::lintCodebase(corpus::make(app, model), withIr);
      EXPECT_FALSE(report.hasErrors())
          << app << "/" << model << ":\n" << report.renderText();
      const auto isIrCheck = [](lint::Check c) {
        return c == lint::Check::UninitUse || c == lint::Check::DeadStore ||
               c == lint::Check::UnreachableBlock || c == lint::Check::DeviceTransfer;
      };
      for (const auto &unit : report.units)
        for (const auto &d : unit.diags)
          EXPECT_FALSE(isIrCheck(d.check))
              << app << "/" << model << " " << unit.file << ": " << d.message;
      ++ports;
    }
  }
  EXPECT_GE(ports, 40u);
}

TEST(LintFacts, SharedFactsMatchPerTierBareModules) {
  // lintCodebase and rangeCodebase build one ir::ModuleFacts per unit and
  // run every IR tier over it (svale range also feeds one range analysis to
  // both its summaries and its diagnostics). The bare-module entry points,
  // which the benches and the traced end-to-end pass call, build fresh
  // facts per tier. Both paths must report the same diagnostics in the
  // same order.
  usize units = 0;
  for (const auto &app : corpus::appNames()) {
    for (const auto &model : corpus::modelsOf(app)) {
      const auto cb = corpus::make(app, model);
      const auto lint = silvervale::lintCodebase(cb, {.ir = true, .deps = true, .range = true});
      const auto range = silvervale::rangeCodebase(cb);
      ASSERT_EQ(lint.units.size(), cb.commands.size());
      ASSERT_EQ(range.units.size(), cb.commands.size());
      for (usize i = 0; i < cb.commands.size(); ++i) {
        const auto parsed = db::parseUnit(cb, cb.commands[i]);
        const auto module = ir::lower(parsed.tu, {.model = parsed.model});
        auto expected = lint::run(parsed.tu);
        const auto append = [&expected](const std::vector<lint::Diagnostic> &diags) {
          expected.insert(expected.end(), diags.begin(), diags.end());
        };
        append(lint::runIr(module));
        append(lint::runDeps(module, {.unit = &parsed.tu}));
        const auto rangeDiags = lint::runRange(module);
        append(rangeDiags);
        EXPECT_EQ(lint.units[i].diags, expected) << app << "/" << model << " " << parsed.file;
        EXPECT_EQ(range.units[i].diags, rangeDiags) << app << "/" << model << " " << parsed.file;
        ++units;
      }
    }
  }
  EXPECT_GE(units, 65u); // every unit of the 46 ports
}
