// Corpus-wide lint regression: every shipped port of every miniapp must be
// error-free. The ports are real, verified implementations — any error
// here is a linter false positive, which destroys the tool's value faster
// than a false negative does.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
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
