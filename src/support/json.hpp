// A small, strict JSON value model with parser and writer. SilverVale needs
// JSON for two workflow inputs (Fig 2): the Compilation Database
// (compile_commands.json) and coverage exports. Written from scratch; no
// external dependency.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/common.hpp"

namespace sv::json {

class Value;
using Array = std::vector<Value>;
/// std::map keeps keys ordered, which makes writer output deterministic —
/// important for golden tests and reproducible DB files.
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number (double), string, array or object.
class Value {
public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(i64 i) : data_(static_cast<double>(i)) {}
  Value(usize i) : data_(static_cast<double>(i)) {}
  Value(const char *s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  [[nodiscard]] bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool isBool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool isNumber() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool isString() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool isArray() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool isObject() const { return std::holds_alternative<Object>(data_); }

  /// Typed accessors; throw ParseError when the value has a different type,
  /// since a type mismatch always means malformed input in our usage.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] i64 asInt() const;
  [[nodiscard]] const std::string &asString() const;
  [[nodiscard]] const Array &asArray() const;
  [[nodiscard]] const Object &asObject() const;

  /// Object field lookup; throws when missing.
  [[nodiscard]] const Value &at(const std::string &key) const;
  /// Object field lookup with a default when the field is missing.
  [[nodiscard]] const Value *find(const std::string &key) const;

  [[nodiscard]] bool operator==(const Value &other) const = default;

private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Deepest array/object nesting parse() accepts.
inline constexpr usize kMaxNesting = 512;

/// Parse a complete JSON document; trailing garbage and nesting deeper than
/// kMaxNesting are errors.
[[nodiscard]] Value parse(std::string_view text);

/// Serialise; `indent` > 0 pretty-prints with that many spaces per level.
[[nodiscard]] std::string write(const Value &v, int indent = 0);

} // namespace sv::json
