// MessagePack-compatible binary encoder/decoder. The paper's Codebase DB
// stores semantic-bearing trees and metadata "in a Zstd compressed
// MessagePack format" (Section IV); this is our from-scratch equivalent of
// the MessagePack half (see compress.hpp for the compression half).
//
// The subset implemented covers every type the DB uses: nil, bool, int
// (all widths, positive/negative fixint), float64, str (fixstr/8/16/32),
// bin, array (fix/16/32) and map (fix/16/32). Encoding follows the
// MessagePack spec so files are readable by standard tooling.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/common.hpp"

namespace sv::msgpack {

class Value;
using Array = std::vector<Value>;
using Map = std::map<std::string, Value>;
using Bin = std::vector<u8>;

/// A MessagePack value. Integers are kept as i64; floats as double.
class Value {
public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(i64 i) : data_(i) {}
  Value(int i) : data_(static_cast<i64>(i)) {}
  Value(usize i) : data_(static_cast<i64>(i)) {}
  Value(u32 i) : data_(static_cast<i64>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char *s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Map m) : data_(std::move(m)) {}
  Value(Bin b) : data_(std::move(b)) {}

  [[nodiscard]] bool isNil() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool isBool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool isInt() const { return std::holds_alternative<i64>(data_); }
  [[nodiscard]] bool isDouble() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool isString() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool isArray() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool isMap() const { return std::holds_alternative<Map>(data_); }
  [[nodiscard]] bool isBin() const { return std::holds_alternative<Bin>(data_); }

  [[nodiscard]] bool asBool() const;
  [[nodiscard]] i64 asInt() const;
  [[nodiscard]] double asDouble() const;
  [[nodiscard]] const std::string &asString() const;
  [[nodiscard]] const Array &asArray() const;
  [[nodiscard]] const Map &asMap() const;
  [[nodiscard]] const Bin &asBin() const;

  /// Map field lookup; throws ParseError when missing.
  [[nodiscard]] const Value &at(const std::string &key) const;

  [[nodiscard]] bool operator==(const Value &other) const = default;

private:
  std::variant<std::nullptr_t, bool, i64, double, std::string, Array, Map, Bin> data_;
};

/// Serialise a value to MessagePack bytes.
[[nodiscard]] std::vector<u8> encode(const Value &v);

/// Deepest array/map nesting decode() accepts.
inline constexpr usize kMaxNesting = 512;

/// Parse MessagePack bytes; trailing bytes, nesting deeper than kMaxNesting
/// and element counts the remaining input cannot hold are errors.
[[nodiscard]] Value decode(const std::vector<u8> &bytes);

} // namespace sv::msgpack
