// Fire/silent pairs for the value-range lint tier (lint::runRange): every
// check gets a seeded defect that must fire and a healthy twin that must
// stay silent, in both front ends, plus the severity-threshold helpers
// behind --max-severity and the corpus-wide RangeGate — all shipped ports
// are range-clean and the range-sharpened dependence tests keep the
// strictly-greater provably-parallel count.
#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/corpus.hpp"
#include "ir/lower.hpp"
#include "lint/rangelint.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "minif/fparser.hpp"
#include "silvervale/silvervale.hpp"

using namespace sv;

namespace {

lang::SourceManager gSm;

std::vector<lint::Diagnostic> rangeC(const std::string &src,
                                     ir::Model model = ir::Model::Serial) {
  auto tu = minic::parseTranslationUnit(minic::lex(src, 0), "t.cpp", gSm);
  minic::analyse(tu);
  ir::LowerOptions opts;
  opts.model = model;
  return lint::runRange(ir::lower(tu, opts));
}

std::vector<lint::Diagnostic> rangeF(const std::string &src,
                                     ir::Model model = ir::Model::Serial,
                                     const std::string &file = "t.f90") {
  auto tu = minif::parseFortran(minif::lexFortran(src, 0), file, gSm);
  ir::LowerOptions opts;
  opts.model = model;
  return lint::runRange(ir::lower(tu, opts));
}

usize count(const std::vector<lint::Diagnostic> &diags, lint::Check check) {
  return static_cast<usize>(std::count_if(
      diags.begin(), diags.end(), [&](const auto &d) { return d.check == check; }));
}

const lint::Diagnostic *first(const std::vector<lint::Diagnostic> &diags,
                              lint::Check check) {
  for (const auto &d : diags)
    if (d.check == check) return &d;
  return nullptr;
}

bool isRangeCheck(lint::Check c) {
  return c == lint::Check::OutOfBounds || c == lint::Check::DivisionByZero ||
         c == lint::Check::DeadBranch || c == lint::Check::ZeroTripLoop;
}

} // namespace

// --------------------------------------------------------- out of bounds --

TEST(LintRange, OutOfBoundsErrorOnProvenOverrun) {
  const auto diags = rangeC("void f() {\n"
                            "  double a[8];\n"
                            "  for (int i = 0; i < 8; ++i) { a[i] = 0.5; }\n"
                            "  a[11] = 1.0;\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::OutOfBounds), 1u);
  const auto *d = first(diags, lint::Check::OutOfBounds);
  EXPECT_EQ(d->severity, lint::Severity::Error);
  EXPECT_EQ(d->loc.line, 4);
}

TEST(LintRange, OutOfBoundsWarningOnPossibleOverrun) {
  // i joins to [0, 9]: not provably outside [0, 7], but the violating side
  // is bounded, so the tier warns instead of erroring.
  const auto diags = rangeC("void f(int k) {\n"
                            "  double a[8];\n"
                            "  int i = 0;\n"
                            "  if (k > 0) { i = 9; }\n"
                            "  a[i] = 1.0;\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::OutOfBounds), 1u);
  EXPECT_EQ(first(diags, lint::Check::OutOfBounds)->severity,
            lint::Severity::Warning);
}

TEST(LintRange, OutOfBoundsSilentOnRefinedLoop) {
  const auto diags = rangeC("void f() {\n"
                            "  double a[8];\n"
                            "  for (int i = 0; i < 8; ++i) { a[i] = 0.5; }\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::OutOfBounds), 0u);
}

TEST(LintRange, OutOfBoundsSilentOnOpaqueIndex) {
  // ⊤ index into a stack array: the analysis gave up, so no diagnostic —
  // warning on every opaque subscript would bury the real findings.
  const auto diags = rangeC("void f(int k) {\n"
                            "  double a[8];\n"
                            "  a[k] = 1.0;\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::OutOfBounds), 0u);
}

TEST(LintRange, OutOfBoundsErrorFortran) {
  const auto diags = rangeF("subroutine s()\n"
                            "  real(8) :: a(8)\n"
                            "  integer :: i\n"
                            "  do i = 1, 8\n"
                            "    a(i) = 0.5\n"
                            "  end do\n"
                            "  a(11) = 1.0\n"
                            "end subroutine\n");
  ASSERT_GE(count(diags, lint::Check::OutOfBounds), 1u);
  EXPECT_EQ(first(diags, lint::Check::OutOfBounds)->severity,
            lint::Severity::Error);
}

TEST(LintRange, OutOfBoundsSilentFortranInBounds) {
  const auto diags = rangeF("subroutine s()\n"
                            "  real(8) :: a(8)\n"
                            "  integer :: i\n"
                            "  do i = 1, 8\n"
                            "    a(i) = 0.5\n"
                            "  end do\n"
                            "end subroutine\n");
  EXPECT_EQ(count(diags, lint::Check::OutOfBounds), 0u);
}

TEST(LintRange, OutOfBoundsSilentFortranF03) {
  // Every Fortran extension gets Fortran's 1-based subscript window.
  const auto diags = rangeF("subroutine s()\n"
                            "  real(8) :: a(8)\n"
                            "  integer :: i\n"
                            "  do i = 1, 8\n"
                            "    a(i) = 0.5\n"
                            "  end do\n"
                            "end subroutine\n",
                            ir::Model::Serial, "t.f03");
  EXPECT_EQ(count(diags, lint::Check::OutOfBounds), 0u);
}

// ------------------------------------------------------ division by zero --

TEST(LintRange, DivisionByZeroErrorOnProvenZeroDivisor) {
  const auto diags = rangeC("int f(int x) {\n"
                            "  int z = 0;\n"
                            "  return x / z;\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::DivisionByZero), 1u);
  EXPECT_EQ(first(diags, lint::Check::DivisionByZero)->severity,
            lint::Severity::Error);
}

TEST(LintRange, DivisionByZeroSilentOnNonZeroDivisor) {
  const auto diags = rangeC("int f(int x) {\n"
                            "  int z = 2;\n"
                            "  return x / z;\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::DivisionByZero), 0u);
}

TEST(LintRange, DivisionByZeroSilentOnPossiblyZeroDivisor) {
  // [0, 1] divisor: possible but not proven; the tier only reports proofs.
  const auto diags = rangeC("int f(int x, int k) {\n"
                            "  int z = 0;\n"
                            "  if (k > 0) { z = 1; }\n"
                            "  return x / z;\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::DivisionByZero), 0u);
}

TEST(LintRange, DivisionByZeroErrorFortran) {
  const auto diags = rangeF("subroutine s(x)\n"
                            "  integer :: x\n"
                            "  integer :: z, q\n"
                            "  z = 0\n"
                            "  q = x / z\n"
                            "  print *, q\n"
                            "end subroutine\n");
  ASSERT_GE(count(diags, lint::Check::DivisionByZero), 1u);
}

TEST(LintRange, ModuloByZeroErrorFires) {
  const auto diags = rangeC("int f(int x) {\n"
                            "  int z = 0;\n"
                            "  return x % z;\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::DivisionByZero), 1u);
}

// ----------------------------------------------------------- dead branch --

TEST(LintRange, DeadBranchWarningOnProvenFalseCondition) {
  const auto diags = rangeC("void f(double* a) {\n"
                            "  int k = 0;\n"
                            "  if (k > 3) { a[0] = 1.0; }\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::DeadBranch), 1u);
  EXPECT_EQ(first(diags, lint::Check::DeadBranch)->severity,
            lint::Severity::Warning);
}

TEST(LintRange, DeadBranchSilentOnOpenCondition) {
  const auto diags = rangeC("void f(double* a, int k) {\n"
                            "  if (k > 3) { a[0] = 1.0; }\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::DeadBranch), 0u);
}

TEST(LintRange, DeadBranchWarningFortran) {
  const auto diags = rangeF("subroutine s(a)\n"
                            "  real(8) :: a(4)\n"
                            "  integer :: k\n"
                            "  k = 0\n"
                            "  if (k > 3) then\n"
                            "    a(1) = 1.0\n"
                            "  end if\n"
                            "end subroutine\n");
  ASSERT_GE(count(diags, lint::Check::DeadBranch), 1u);
}

TEST(LintRange, DeadBranchSilentFortranOpenCondition) {
  const auto diags = rangeF("subroutine s(a, k)\n"
                            "  real(8) :: a(4)\n"
                            "  integer :: k\n"
                            "  if (k > 3) then\n"
                            "    a(1) = 1.0\n"
                            "  end if\n"
                            "end subroutine\n");
  EXPECT_EQ(count(diags, lint::Check::DeadBranch), 0u);
}

// --------------------------------------------------------- zero-trip loop --

TEST(LintRange, ZeroTripLoopNoteOnEmptyRange) {
  const auto diags = rangeC("void f(double* a) {\n"
                            "  for (int i = 0; i < 0; ++i) { a[i] = 1.0; }\n"
                            "}\n");
  ASSERT_GE(count(diags, lint::Check::ZeroTripLoop), 1u);
  EXPECT_EQ(first(diags, lint::Check::ZeroTripLoop)->severity,
            lint::Severity::Note);
  // The loop-header classification must not double-report as DeadBranch.
  EXPECT_EQ(count(diags, lint::Check::DeadBranch), 0u);
}

TEST(LintRange, ZeroTripLoopSilentOnCountedLoop) {
  const auto diags = rangeC("void f(double* a) {\n"
                            "  for (int i = 0; i < 4; ++i) { a[i] = 1.0; }\n"
                            "}\n");
  EXPECT_EQ(count(diags, lint::Check::ZeroTripLoop), 0u);
}

TEST(LintRange, ZeroTripLoopNoteFortran) {
  const auto diags = rangeF("subroutine s(a)\n"
                            "  real(8) :: a(4)\n"
                            "  integer :: i\n"
                            "  do i = 1, 0\n"
                            "    a(i) = 1.0\n"
                            "  end do\n"
                            "end subroutine\n");
  ASSERT_GE(count(diags, lint::Check::ZeroTripLoop), 1u);
}

TEST(LintRange, ZeroTripLoopSilentFortranCountedLoop) {
  const auto diags = rangeF("subroutine s(a)\n"
                            "  real(8) :: a(4)\n"
                            "  integer :: i\n"
                            "  do i = 1, 4\n"
                            "    a(i) = 1.0\n"
                            "  end do\n"
                            "end subroutine\n");
  EXPECT_EQ(count(diags, lint::Check::ZeroTripLoop), 0u);
}

// ---------------------------------------------------- severity threshold --

TEST(LintSeverity, SeverityFromNameRoundTrips) {
  EXPECT_EQ(lint::severityFromName("note"), lint::Severity::Note);
  EXPECT_EQ(lint::severityFromName("warning"), lint::Severity::Warning);
  EXPECT_EQ(lint::severityFromName("error"), lint::Severity::Error);
  EXPECT_FALSE(lint::severityFromName("fatal").has_value());
  EXPECT_FALSE(lint::severityFromName("").has_value());
}

TEST(LintSeverity, CountAtOrAboveHonorsThreshold) {
  lint::Report report;
  report.units.push_back({"a.cpp", {}});
  auto &diags = report.units.back().diags;
  lint::Diagnostic d;
  d.check = lint::Check::ZeroTripLoop;
  d.severity = lint::Severity::Note;
  diags.push_back(d);
  d.check = lint::Check::DeadBranch;
  d.severity = lint::Severity::Warning;
  diags.push_back(d);
  d.check = lint::Check::OutOfBounds;
  d.severity = lint::Severity::Error;
  diags.push_back(d);
  EXPECT_EQ(report.countAtOrAbove(lint::Severity::Note), 3u);
  EXPECT_EQ(report.countAtOrAbove(lint::Severity::Warning), 2u);
  EXPECT_EQ(report.countAtOrAbove(lint::Severity::Error), 1u);
}

// ------------------------------------------------------------ range gate --

TEST(RangeGate, AllPortsRangeCleanAndParallelCountSharpened) {
  // Every shipped port must produce zero value-range findings of any
  // severity, and the range-sharpened dependence tests must prove strictly
  // more loops parallel than the pre-range snapshot (204).
  usize ports = 0;
  usize provablyParallel = 0;
  for (const auto &app : corpus::appNames()) {
    for (const auto &model : corpus::modelsOf(app)) {
      ++ports;
      const auto cb = corpus::make(app, model);
      const auto report = silvervale::lintCodebase(cb, {.range = true});
      for (const auto &unit : report.units) {
        for (const auto &d : unit.diags) {
          EXPECT_FALSE(isRangeCheck(d.check))
              << app << "/" << model << " " << unit.file << ": "
              << lint::name(d.check) << " on '" << d.symbol << "': " << d.message;
        }
      }
      provablyParallel += silvervale::depsCodebase(cb).provablyParallelCount();
    }
  }
  EXPECT_GE(ports, 46u);
  EXPECT_GT(provablyParallel, 204u);
  // Snapshot when the range feed landed: 242. Raising is fine; dropping
  // means the interval engine lost precision somewhere.
  EXPECT_GE(provablyParallel, 242u);
}
