#include <gtest/gtest.h>

#include "support/msgpack.hpp"

using namespace sv;
using sv::msgpack::Value;

namespace {
Value roundTrip(const Value &v) { return msgpack::decode(msgpack::encode(v)); }
} // namespace

TEST(Msgpack, ScalarsRoundTrip) {
  EXPECT_TRUE(roundTrip(Value(nullptr)).isNil());
  EXPECT_EQ(roundTrip(Value(true)).asBool(), true);
  EXPECT_EQ(roundTrip(Value(false)).asBool(), false);
  EXPECT_DOUBLE_EQ(roundTrip(Value(3.5)).asDouble(), 3.5);
  EXPECT_EQ(roundTrip(Value("hello")).asString(), "hello");
}

class MsgpackIntWidths : public ::testing::TestWithParam<i64> {};

TEST_P(MsgpackIntWidths, RoundTrips) {
  const i64 v = GetParam();
  EXPECT_EQ(roundTrip(Value(v)).asInt(), v);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, MsgpackIntWidths,
                         ::testing::Values<i64>(0, 1, 127, 128, 255, 256, 65535, 65536,
                                                4294967295LL, 4294967296LL, -1, -32, -33, -128,
                                                -129, -32768, -32769, -2147483648LL,
                                                -2147483649LL, 9223372036854775807LL));

TEST(Msgpack, FixintEncodingIsOneByte) {
  EXPECT_EQ(msgpack::encode(Value(5)).size(), 1u);
  EXPECT_EQ(msgpack::encode(Value(-3)).size(), 1u);
}

TEST(Msgpack, StringWidths) {
  for (const usize n : {0u, 31u, 32u, 255u, 256u, 70000u}) {
    const std::string s(n, 'x');
    EXPECT_EQ(roundTrip(Value(s)).asString(), s) << "len=" << n;
  }
}

TEST(Msgpack, BinRoundTrip) {
  msgpack::Bin b{0x00, 0xFF, 0x7F, 0x80};
  EXPECT_EQ(roundTrip(Value(b)).asBin(), b);
}

TEST(Msgpack, NestedContainers) {
  msgpack::Map m;
  m.emplace("list", msgpack::Array{Value(1), Value("two"), Value(3.0)});
  msgpack::Map inner;
  inner.emplace("k", Value(nullptr));
  m.emplace("map", std::move(inner));
  const Value v{std::move(m)};
  EXPECT_EQ(roundTrip(v), v);
}

TEST(Msgpack, LargeArrayRoundTrip) {
  msgpack::Array a;
  for (int i = 0; i < 70000; ++i) a.emplace_back(i);
  const Value v{std::move(a)};
  const auto back = roundTrip(v);
  ASSERT_EQ(back.asArray().size(), 70000u);
  EXPECT_EQ(back.asArray()[69999].asInt(), 69999);
}

TEST(Msgpack, TrailingBytesRejected) {
  auto bytes = msgpack::encode(Value(1));
  bytes.push_back(0x00);
  EXPECT_THROW((void)msgpack::decode(bytes), ParseError);
}

TEST(Msgpack, TruncatedInputRejected) {
  auto bytes = msgpack::encode(Value(std::string(100, 'a')));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)msgpack::decode(bytes), ParseError);
}

TEST(Msgpack, MapFieldAccess) {
  msgpack::Map m;
  m.emplace("x", Value(7));
  const Value v{std::move(m)};
  EXPECT_EQ(v.at("x").asInt(), 7);
  EXPECT_THROW((void)v.at("missing"), ParseError);
}

TEST(Msgpack, DoubleAccessorAcceptsInt) {
  EXPECT_DOUBLE_EQ(Value(4).asDouble(), 4.0);
}

namespace {
/// `levels` arrays nested inside each other around a nil.
Value nestedArrays(usize levels) {
  Value v(nullptr);
  for (usize i = 0; i < levels; ++i) v = Value(msgpack::Array{std::move(v)});
  return v;
}
} // namespace

TEST(Msgpack, NestingAtTheLimitRoundTrips) {
  const Value v = nestedArrays(msgpack::kMaxNesting);
  EXPECT_EQ(roundTrip(v), v);
  EXPECT_THROW((void)roundTrip(nestedArrays(msgpack::kMaxNesting + 1)), ParseError);
}

TEST(Msgpack, HostileNestingRejected) {
  // A million fixarray-of-one headers: the decoder must stop at the
  // nesting bound, not recurse until the stack runs out.
  std::vector<u8> bytes(1000000, 0x91);
  bytes.push_back(0xc0);
  EXPECT_THROW((void)msgpack::decode(bytes), ParseError);
}

TEST(Msgpack, HostileElementCountRejected) {
  // array32 / map32 claiming 4G elements in a 6-byte blob: a ParseError,
  // not a 4G-element reserve().
  EXPECT_THROW((void)msgpack::decode({0xdd, 0xff, 0xff, 0xff, 0xff, 0xc0}), ParseError);
  EXPECT_THROW((void)msgpack::decode({0xdf, 0xff, 0xff, 0xff, 0xff, 0xc0}), ParseError);
}
