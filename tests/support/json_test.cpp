#include <gtest/gtest.h>

#include "support/json.hpp"

using namespace sv;
using sv::json::Value;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null").isNull());
  EXPECT_EQ(json::parse("true").asBool(), true);
  EXPECT_EQ(json::parse("false").asBool(), false);
  EXPECT_DOUBLE_EQ(json::parse("3.25").asNumber(), 3.25);
  EXPECT_EQ(json::parse("-17").asInt(), -17);
  EXPECT_EQ(json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesExponents) {
  EXPECT_DOUBLE_EQ(json::parse("1e3").asNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(json::parse("-2.5E-2").asNumber(), -0.025);
}

TEST(Json, ParsesNestedStructures) {
  const auto v = json::parse(R"({"a": [1, {"b": "c"}], "d": {}})");
  EXPECT_EQ(v.at("a").asArray().size(), 2u);
  EXPECT_EQ(v.at("a").asArray()[1].at("b").asString(), "c");
  EXPECT_TRUE(v.at("d").asObject().empty());
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(json::parse(R"("a\n\t\"\\b")").asString(), "a\n\t\"\\b");
  EXPECT_EQ(json::parse(R"("A")").asString(), "A");
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW((void)json::parse("{} x"), ParseError);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW((void)json::parse("{"), ParseError);
  EXPECT_THROW((void)json::parse("[1,]"), ParseError);
  EXPECT_THROW((void)json::parse("tru"), ParseError);
  EXPECT_THROW((void)json::parse(""), ParseError);
  EXPECT_THROW((void)json::parse("\"unterminated"), ParseError);
}

TEST(Json, NestingLimitThrowsInsteadOfOverflowingTheStack) {
  const auto nested = [](usize depth) { return std::string(depth, '[') + std::string(depth, ']'); };
  EXPECT_EQ(json::write(json::parse(nested(json::kMaxNesting))),
            nested(json::kMaxNesting));
  EXPECT_THROW((void)json::parse(nested(json::kMaxNesting + 1)), ParseError);
  EXPECT_THROW((void)json::parse(std::string(300000, '[')), ParseError);
}

TEST(Json, TypeMismatchThrows) {
  const auto v = json::parse("[1]");
  EXPECT_THROW((void)v.asObject(), ParseError);
  EXPECT_THROW((void)v.asString(), ParseError);
}

TEST(Json, MissingFieldThrowsAndFindReturnsNull) {
  const auto v = json::parse(R"({"x": 1})");
  EXPECT_THROW((void)v.at("y"), ParseError);
  EXPECT_EQ(v.find("y"), nullptr);
  EXPECT_NE(v.find("x"), nullptr);
}

TEST(Json, WriteRoundTrip) {
  const std::string doc = R"({"arr":[1,2.5,"s",null,true],"obj":{"k":false}})";
  const auto v = json::parse(doc);
  const auto v2 = json::parse(json::write(v));
  EXPECT_EQ(v, v2);
}

TEST(Json, WriteIntegersWithoutDecimals) {
  EXPECT_EQ(json::write(Value(42)), "42");
  EXPECT_EQ(json::write(Value(-1)), "-1");
}

TEST(Json, PrettyPrintRoundTrips) {
  const auto v = json::parse(R"({"a":[1,2],"b":"x"})");
  const auto pretty = json::write(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(json::parse(pretty), v);
}

TEST(Json, CompileCommandsShape) {
  // The shape SilverVale actually ingests (Section IV).
  const auto v = json::parse(R"([
    {"directory": "/build", "command": "clang++ -c a.cpp", "file": "a.cpp"},
    {"directory": "/build", "command": "clang++ -c b.cpp", "file": "b.cpp"}
  ])");
  ASSERT_EQ(v.asArray().size(), 2u);
  EXPECT_EQ(v.asArray()[0].at("file").asString(), "a.cpp");
}
