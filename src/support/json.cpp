#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace sv::json {

namespace {

[[noreturn]] void fail(usize pos, const std::string &what) {
  throw ParseError("JSON error at offset " + std::to_string(pos) + ": " + what);
}

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

private:
  std::string_view text_;
  usize pos_ = 0;
  usize depth_ = 0; ///< containers currently open

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char next() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_++];
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect(char c) {
    if (next() != c) fail(pos_ - 1, std::string("expected '") + c + "'");
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value parseValue() {
    skipWs();
    const char c = peek();
    switch (c) {
    case '{':
    case '[': {
      // Containers parse by recursion: bound the depth so hostile input
      // fails with a ParseError instead of exhausting the stack.
      if (depth_ == kMaxNesting)
        fail(pos_, "nesting deeper than " + std::to_string(kMaxNesting) + " levels");
      ++depth_;
      Value v = c == '{' ? parseObject() : parseArray();
      --depth_;
      return v;
    }
    case '"': return Value(parseString());
    case 't':
      if (consume("true")) return Value(true);
      fail(pos_, "invalid literal");
    case 'f':
      if (consume("false")) return Value(false);
      fail(pos_, "invalid literal");
    case 'n':
      if (consume("null")) return Value(nullptr);
      fail(pos_, "invalid literal");
    default: return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Object obj;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      obj.emplace(std::move(key), parseValue());
      skipWs();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parseArray() {
    expect('[');
    Array arr;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parseValue());
      skipWs();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "invalid \\u escape");
          }
          // Encode the code point as UTF-8. Surrogate pairs are passed
          // through individually; our inputs are ASCII in practice.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail(pos_ - 1, "invalid escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value parseNumber() {
    const usize start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) fail(pos_, "expected a value");
    double value = 0;
    const auto *first = text_.data() + start;
    const auto *last = text_.data() + pos_;
    const auto res = std::from_chars(first, last, value);
    if (res.ec != std::errc{} || res.ptr != last) fail(start, "malformed number");
    return Value(value);
  }
};

void writeString(std::string &out, const std::string &s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\b': out += "\\b"; break;
    case '\f': out += "\\f"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
  }
  out.push_back('"');
}

void writeNumber(std::string &out, double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void writeValue(std::string &out, const Value &v, int indent, int depth) {
  const auto pad = [&](int d) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<usize>(indent * d), ' ');
    }
  };
  if (v.isNull()) {
    out += "null";
  } else if (v.isBool()) {
    out += v.asBool() ? "true" : "false";
  } else if (v.isNumber()) {
    writeNumber(out, v.asNumber());
  } else if (v.isString()) {
    writeString(out, v.asString());
  } else if (v.isArray()) {
    const auto &arr = v.asArray();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (usize i = 0; i < arr.size(); ++i) {
      if (i != 0) out.push_back(',');
      pad(depth + 1);
      writeValue(out, arr[i], indent, depth + 1);
    }
    pad(depth);
    out.push_back(']');
  } else {
    const auto &obj = v.asObject();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto &[k, val] : obj) {
      if (!first) out.push_back(',');
      first = false;
      pad(depth + 1);
      writeString(out, k);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      writeValue(out, val, indent, depth + 1);
    }
    pad(depth);
    out.push_back('}');
  }
}

} // namespace

bool Value::asBool() const {
  if (!isBool()) throw ParseError("JSON: expected bool");
  return std::get<bool>(data_);
}
double Value::asNumber() const {
  if (!isNumber()) throw ParseError("JSON: expected number");
  return std::get<double>(data_);
}
i64 Value::asInt() const { return static_cast<i64>(asNumber()); }
const std::string &Value::asString() const {
  if (!isString()) throw ParseError("JSON: expected string");
  return std::get<std::string>(data_);
}
const Array &Value::asArray() const {
  if (!isArray()) throw ParseError("JSON: expected array");
  return std::get<Array>(data_);
}
const Object &Value::asObject() const {
  if (!isObject()) throw ParseError("JSON: expected object");
  return std::get<Object>(data_);
}
const Value &Value::at(const std::string &key) const {
  const auto &obj = asObject();
  const auto it = obj.find(key);
  if (it == obj.end()) throw ParseError("JSON: missing field '" + key + "'");
  return it->second;
}
const Value *Value::find(const std::string &key) const {
  const auto &obj = asObject();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Value parse(std::string_view text) { return Parser(text).parseDocument(); }

std::string write(const Value &v, int indent) {
  std::string out;
  writeValue(out, v, indent, 0);
  return out;
}

} // namespace sv::json
