// Edge cases of the shared command-line parser: inline `=` values
// (including empty), repeated flags, the `--` terminator, short aliases,
// and rejection of malformed input.
#include <gtest/gtest.h>

#include "support/cliargs.hpp"

using namespace sv;

namespace {

const cli::FlagSpec kSpec = {
    /*valueFlags=*/{"metric", "base", "out"},
    /*bareFlags=*/{"json", "ir"},
    /*shortAliases=*/{{"-o", "out"}},
};

cli::Args parse(std::vector<std::string> argv) { return cli::parseArgs(argv, kSpec); }

} // namespace

TEST(CliArgs, SeparateAndInlineValues) {
  const auto a = parse({"alpha", "--metric", "Tsem", "--base=serial", "beta"});
  EXPECT_EQ(a.positional, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(a.get("metric", ""), "Tsem");
  EXPECT_EQ(a.get("base", ""), "serial");
}

TEST(CliArgs, InlineEmptyValueIsKept) {
  const auto a = parse({"--out="});
  ASSERT_TRUE(a.has("out"));
  EXPECT_EQ(a.flags.at("out"), "");
}

TEST(CliArgs, RepeatedFlagLastWins) {
  const auto a = parse({"--metric", "SLOC", "--metric=Tsem", "--metric", "Tir"});
  EXPECT_EQ(a.get("metric", ""), "Tir");
}

TEST(CliArgs, DoubleDashTerminatesFlagParsing) {
  const auto a = parse({"--metric", "Tsem", "--", "--base", "-o", "--json"});
  EXPECT_EQ(a.get("metric", ""), "Tsem");
  EXPECT_FALSE(a.has("base"));
  EXPECT_FALSE(a.has("json"));
  EXPECT_EQ(a.positional, (std::vector<std::string>{"--base", "-o", "--json"}));
}

TEST(CliArgs, ValueFlagConsumesDashValue) {
  const auto a = parse({"--base", "-serial-variant"});
  EXPECT_EQ(a.get("base", ""), "-serial-variant");
}

TEST(CliArgs, ShortAlias) {
  const auto a = parse({"-o", "db.svdb"});
  EXPECT_EQ(a.get("out", ""), "db.svdb");
  EXPECT_THROW((void)parse({"-o"}), cli::UsageError);
}

TEST(CliArgs, BareFlagStoresMarker) {
  const auto a = parse({"--json", "--ir"});
  EXPECT_TRUE(a.has("json"));
  EXPECT_TRUE(a.has("ir"));
}

TEST(CliArgs, RejectsMalformedInput) {
  EXPECT_THROW((void)parse({"--bogus"}), cli::UsageError);       // unknown flag
  EXPECT_THROW((void)parse({"--out"}), cli::UsageError);         // value flag at end
  EXPECT_THROW((void)parse({"--json=1"}), cli::UsageError);      // bare flag with value
  EXPECT_THROW((void)parse({"--json", "--out"}), cli::UsageError);
}

TEST(CliArgs, PerCommandFlagReclassification) {
  // The spec is chosen per invocation, so one flag name can be a value
  // flag for one command and a bare switch for another — the pattern
  // behind `query --range D` versus `lint --range` in tools/svale.cpp.
  const cli::FlagSpec valueSpec = {/*valueFlags=*/{"range"}, {}, {}};
  const cli::FlagSpec bareSpec = {{}, /*bareFlags=*/{"range"}, {}};
  EXPECT_EQ(cli::parseArgs({"--range", "3"}, valueSpec).get("range", ""), "3");
  EXPECT_TRUE(cli::parseArgs({"--range"}, bareSpec).has("range"));
  EXPECT_THROW((void)cli::parseArgs({"--range"}, valueSpec), cli::UsageError);
  EXPECT_THROW((void)cli::parseArgs({"--range=3"}, bareSpec), cli::UsageError);
}

TEST(CliArgs, GetFallback) {
  const auto a = parse({});
  EXPECT_EQ(a.get("metric", "Tsem"), "Tsem");
  EXPECT_TRUE(a.positional.empty());
}

TEST(CliArgs, ParseU64RejectsSignsAndOverflow) {
  EXPECT_EQ(cli::parseU64("0", "k"), 0u);
  EXPECT_EQ(cli::parseU64("18446744073709551615", "range"), ~u64{0});
  for (const char *bad : {"-1", "18446744073709551616", "99999999999999999999999", "+1", " 1",
                          "1x", "", "nan"})
    EXPECT_THROW((void)cli::parseU64(bad, "k"), cli::UsageError) << "'" << bad << "'";
}

TEST(CliArgs, ParseDoubleRejectsNegativeAndNonFinite) {
  EXPECT_EQ(cli::parseDouble("0.05", "cutoff"), 0.05);
  EXPECT_EQ(cli::parseDouble("1", "cutoff"), 1.0);
  for (const char *bad : {"-0.5", "-0", "nan", "inf", "-inf", "1e999", "0.5x", ""})
    EXPECT_THROW((void)cli::parseDouble(bad, "cutoff"), cli::UsageError) << "'" << bad << "'";
}
