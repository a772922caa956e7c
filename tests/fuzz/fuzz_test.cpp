// Tests for the fuzz subsystem: generator determinism and well-formedness,
// oracle-clean runs, transcript determinism, the injected-bug self-test
// (catch -> shrink -> archive -> replay), the line reducer, the
// comment/whitespace mutator, and the ir::print reparser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/fuzz.hpp"
#include "fuzz/irtext.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/reduce.hpp"
#include "fuzz/rng.hpp"
#include "ir/lower.hpp"
#include "lint/lint.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/preprocessor.hpp"
#include "minic/semtree.hpp"
#include "minif/flexer.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "silvervale/silvervale.hpp"

using namespace sv;
using namespace sv::fuzz;

namespace {

GeneratedProgram gen(Lang lang, u64 seed, bool inject = false) {
  GenOptions o;
  o.lang = lang;
  o.seed = seed;
  o.injectUndeclaredUse = inject;
  return generate(o);
}

lang::ast::TranslationUnit parseAny(const std::string &source, Lang lang) {
  lang::SourceManager sm;
  const i32 id = sm.add(lang == Lang::MiniC ? "t.cpp" : "t.f90", source);
  if (lang == Lang::MiniC) {
    const auto pre = minic::preprocess(sm, id);
    const auto toks = minic::lex(pre.text, id, &pre.lineOrigins);
    return minic::parseTranslationUnit(toks, "t.cpp", sm);
  }
  const auto toks = minif::lexFortran(source, id);
  return minif::parseFortran(toks, "t.f90", sm);
}

} // namespace

TEST(Rng, SplitMixIsDeterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Rng(1).next(), Rng(2).next());
  EXPECT_EQ(mixSeed(7, 3), mixSeed(7, 3));
  EXPECT_NE(mixSeed(7, 3), mixSeed(7, 4));
}

TEST(Generator, DeterministicForFixedSeed) {
  for (const Lang lang : {Lang::MiniC, Lang::MiniF}) {
    const auto a = gen(lang, 123), b = gen(lang, 123);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.model, b.model);
    EXPECT_NE(gen(lang, 123).source, gen(lang, 124).source);
  }
}

TEST(Generator, ProgramsAreWellFormed) {
  for (const Lang lang : {Lang::MiniC, Lang::MiniF})
    for (u64 seed = 1; seed <= 40; ++seed) {
      const auto p = gen(lang, seed);
      EXPECT_TRUE(parses(p.source, lang))
          << langName(lang) << " seed " << seed << ":\n" << p.source;
    }
}

TEST(Generator, MiniFLocalsAreSetBeforeUse) {
  // A generated MiniF local is assigned before any statement reads it, so
  // the all-tier lint finds no uninitialised use (seed 1001 once emitted
  // `t0 = t0 * p0`).
  silvervale::LintOptions lint;
  lint.ir = lint.deps = lint.range = true;
  for (u64 seed = 1000; seed < 1300; ++seed) {
    const auto p = gen(Lang::MiniF, seed);
    db::Codebase cb;
    cb.app = "fuzz";
    cb.model = p.model;
    cb.addFile(p.fileName, p.source);
    db::CompileCommand cmd;
    cmd.file = p.fileName;
    cmd.args = {"cc", p.fileName};
    if (p.model == "omp") cmd.args.push_back("-fopenmp");
    cb.commands.push_back(std::move(cmd));
    for (const auto &unit : silvervale::lintCodebase(cb, lint).units)
      for (const auto &d : unit.diags)
        EXPECT_FALSE(d.check == lint::Check::UninitUse && d.severity == lint::Severity::Error)
            << "seed " << seed << ": " << d.message << "\n" << p.source;
  }
}

TEST(Oracles, CleanOverGeneratedPrograms) {
  FuzzOptions o;
  o.seed = 11;
  o.count = 15; // includes corpus-mutant rounds at every 5th iteration
  o.outDir.clear();
  const auto report = runFuzz(o);
  EXPECT_GT(report.programs, 0u);
  EXPECT_GT(report.corpusRounds, 0u);
  for (const auto &f : report.failures)
    ADD_FAILURE() << oracleName(f.oracle) << " lang=" << langName(f.lang) << " seed=" << f.seed
                  << ": " << f.message;
}

TEST(Fuzz, TranscriptIsDeterministic) {
  FuzzOptions o;
  o.seed = 5;
  o.count = 8;
  o.outDir.clear();
  const auto a = runFuzz(o), b = runFuzz(o);
  EXPECT_FALSE(a.transcript.empty());
  EXPECT_EQ(a.transcript, b.transcript);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Fuzz, InjectedBugIsCaughtShrunkAndArchived) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sv-fuzz-crashes";
  std::filesystem::remove_all(dir);
  FuzzOptions o;
  o.seed = 3;
  o.count = 1;
  o.injectUndeclaredUse = true;
  o.outDir = dir.string();
  const auto report = runFuzz(o);
  ASSERT_FALSE(report.ok());
  bool archived = false;
  for (const auto &f : report.failures) {
    EXPECT_EQ(f.oracle, Oracle::Vm) << f.message;
    if (f.file.empty()) continue;
    archived = true;
    ASSERT_TRUE(std::filesystem::exists(f.file));
    std::ifstream in(f.file);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string content = ss.str();
    // Shrunk to a handful of lines (acceptance: <= 10) and carries the
    // metadata header the replay path parses.
    usize lines = 0;
    for (const char c : content)
      if (c == '\n') ++lines;
    EXPECT_LE(lines, 10u) << content;
    EXPECT_NE(content.find("svale-fuzz"), std::string::npos);
    // A crash file replays as a failure until the bug is fixed.
    const auto replay =
        replayCrashFile(std::filesystem::path(f.file).filename().string(), content);
    EXPECT_FALSE(replay.ok);
  }
  EXPECT_TRUE(archived);
  std::filesystem::remove_all(dir);
}

TEST(Fuzz, ReplayPassesOnHealthyProgram) {
  const auto p = gen(Lang::MiniC, 17);
  const auto result = replayCrashFile("healthy.cpp", p.source);
  EXPECT_TRUE(result.ok) << result.message;
  const auto f = gen(Lang::MiniF, 17);
  const auto resultF = replayCrashFile("healthy.f90", f.source);
  EXPECT_TRUE(resultF.ok) << resultF.message;
}

TEST(Fuzz, ReplayHonoursHeader) {
  auto p = gen(Lang::MiniF, 21);
  const std::string content = "! svale-fuzz lang=f model=" + p.model + " seed=21\n" + p.source;
  // Extension says MiniC; the header must override it.
  EXPECT_TRUE(replayCrashFile("mislabeled.cpp", content).ok);
}

TEST(Oracles, RangeOracleCleanOverGeneratedPrograms) {
  // The soundness half: every VM-observed integer write must sit inside
  // the static interval at that line, deterministically, modulo
  // comment/whitespace mutation. Clean over a spread of seeds.
  FuzzOptions o;
  o.seed = 29;
  o.count = 6;
  o.outDir.clear();
  o.oracleMask = oracleBit(Oracle::Range);
  const auto report = runFuzz(o);
  EXPECT_GT(report.programs, 0u);
  for (const auto &f : report.failures)
    ADD_FAILURE() << oracleName(f.oracle) << " lang=" << langName(f.lang)
                  << " seed=" << f.seed << ": " << f.message;
}

TEST(Oracles, InjectedRangeDefectsAreCaught) {
  // --inject-range seeds a proven OOB store and a proven zero divisor
  // behind a runtime-false guard. The range oracle *fails* when the static
  // checks miss either one, so a clean run means both were caught — and
  // the guard keeps every other oracle (VM included) clean.
  FuzzOptions o;
  o.seed = 31;
  o.count = 3;
  o.outDir.clear();
  o.injectRange = true;
  const auto report = runFuzz(o);
  EXPECT_GT(report.programs, 0u);
  for (const auto &f : report.failures)
    ADD_FAILURE() << oracleName(f.oracle) << " lang=" << langName(f.lang)
                  << " seed=" << f.seed << ": " << f.message;
}

TEST(Reducer, IsolatesTheFailingLine) {
  const std::string source = "alpha\nbeta\nNEEDLE\ngamma\ndelta\n";
  const auto reduced = reduceLines(
      source, [](const std::string &s) { return s.find("NEEDLE") != std::string::npos; });
  EXPECT_EQ(reduced, "NEEDLE\n");
}

TEST(Reducer, RespectsCheckBudget) {
  usize calls = 0;
  const auto reduced = reduceLines(
      "a\nb\nc\nd\ne\nf\ng\nh\n",
      [&](const std::string &) {
        ++calls;
        return false;
      },
      /*maxChecks=*/5);
  EXPECT_LE(calls, 5u);
  EXPECT_EQ(reduced, "a\nb\nc\nd\ne\nf\ng\nh\n"); // nothing removable
}

TEST(Reducer, NeverReturnsEmpty) {
  const auto reduced =
      reduceLines("one\ntwo\n", [](const std::string &) { return true; });
  EXPECT_FALSE(reduced.empty());
}

TEST(Mutator, PreservesSemanticFingerprint) {
  for (const Lang lang : {Lang::MiniC, Lang::MiniF})
    for (u64 seed = 1; seed <= 10; ++seed) {
      const auto p = gen(lang, seed);
      Rng rng(seed * 977);
      const auto mutated = mutateCommentsWhitespace(p.source, lang, rng);
      ASSERT_TRUE(parses(mutated, lang))
          << langName(lang) << " seed " << seed << ":\n" << mutated;
      const auto before = parseAny(p.source, lang);
      const auto after = parseAny(mutated, lang);
      const auto tBefore = lang == Lang::MiniC ? minic::buildSemTree(before)
                                               : minif::buildFortranSemTree(before);
      const auto tAfter = lang == Lang::MiniC ? minic::buildSemTree(after)
                                              : minif::buildFortranSemTree(after);
      EXPECT_EQ(tBefore.fingerprint(), tAfter.fingerprint())
          << langName(lang) << " seed " << seed;
    }
}

TEST(IrText, PrintParsePrintIsAFixpoint) {
  for (u64 seed : {1u, 2u, 3u, 9u}) {
    const auto p = gen(Lang::MiniC, seed);
    auto tu = parseAny(p.source, Lang::MiniC);
    ir::LowerOptions lo;
    lo.model = p.model == "omp" ? ir::Model::OpenMP : ir::Model::Serial;
    const auto module = ir::lower(tu, lo);
    const auto text = ir::print(module);
    const auto reparsed = parseIrText(text);
    EXPECT_EQ(ir::print(reparsed), text) << "seed " << seed;
  }
}

TEST(IrText, RejectsMalformedText) {
  EXPECT_THROW((void)parseIrText("define broken\n"), ParseError);
}

TEST(Oracles, NamesRoundTrip) {
  for (const Oracle o : {Oracle::RoundTrip, Oracle::Vm, Oracle::Ir, Oracle::Ted,
                         Oracle::Lint, Oracle::Lb, Oracle::Deps, Oracle::Range}) {
    const auto back = oracleFromName(oracleName(o));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, o);
  }
  EXPECT_FALSE(oracleFromName("bogus").has_value());
}
