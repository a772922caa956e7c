#include "support/msgpack.hpp"

#include <cstring>

namespace sv::msgpack {

namespace {

void putBytes(std::vector<u8> &out, const void *data, usize n) {
  const auto *p = static_cast<const u8 *>(data);
  out.insert(out.end(), p, p + n);
}

// MessagePack is big-endian on the wire.
template <typename T> void putBE(std::vector<u8> &out, T value) {
  u8 buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  for (usize i = 0; i < sizeof(T); ++i) out.push_back(buf[sizeof(T) - 1 - i]);
}

void encodeValue(std::vector<u8> &out, const Value &v);

void encodeInt(std::vector<u8> &out, i64 i) {
  if (i >= 0) {
    if (i < 0x80) out.push_back(static_cast<u8>(i)); // positive fixint
    else if (i <= 0xFF) {
      out.push_back(0xcc);
      out.push_back(static_cast<u8>(i));
    } else if (i <= 0xFFFF) {
      out.push_back(0xcd);
      putBE<u16>(out, static_cast<u16>(i));
    } else if (i <= 0xFFFFFFFFLL) {
      out.push_back(0xce);
      putBE<u32>(out, static_cast<u32>(i));
    } else {
      out.push_back(0xcf);
      putBE<u64>(out, static_cast<u64>(i));
    }
  } else {
    if (i >= -32) out.push_back(static_cast<u8>(i)); // negative fixint
    else if (i >= -128) {
      out.push_back(0xd0);
      out.push_back(static_cast<u8>(static_cast<i8>(i)));
    } else if (i >= -32768) {
      out.push_back(0xd1);
      putBE<u16>(out, static_cast<u16>(static_cast<i16>(i)));
    } else if (i >= -2147483648LL) {
      out.push_back(0xd2);
      putBE<u32>(out, static_cast<u32>(static_cast<i32>(i)));
    } else {
      out.push_back(0xd3);
      putBE<u64>(out, static_cast<u64>(i));
    }
  }
}

void encodeString(std::vector<u8> &out, const std::string &s) {
  const usize n = s.size();
  if (n < 32) out.push_back(static_cast<u8>(0xa0 | n)); // fixstr
  else if (n <= 0xFF) {
    out.push_back(0xd9);
    out.push_back(static_cast<u8>(n));
  } else if (n <= 0xFFFF) {
    out.push_back(0xda);
    putBE<u16>(out, static_cast<u16>(n));
  } else {
    out.push_back(0xdb);
    putBE<u32>(out, static_cast<u32>(n));
  }
  putBytes(out, s.data(), n);
}

void encodeValue(std::vector<u8> &out, const Value &v) {
  if (v.isNil()) {
    out.push_back(0xc0);
  } else if (v.isBool()) {
    out.push_back(v.asBool() ? 0xc3 : 0xc2);
  } else if (v.isInt()) {
    encodeInt(out, v.asInt());
  } else if (v.isDouble()) {
    out.push_back(0xcb);
    u64 bits;
    const double d = v.asDouble();
    std::memcpy(&bits, &d, sizeof(double));
    putBE<u64>(out, bits);
  } else if (v.isString()) {
    encodeString(out, v.asString());
  } else if (v.isBin()) {
    const auto &b = v.asBin();
    const usize n = b.size();
    if (n <= 0xFF) {
      out.push_back(0xc4);
      out.push_back(static_cast<u8>(n));
    } else if (n <= 0xFFFF) {
      out.push_back(0xc5);
      putBE<u16>(out, static_cast<u16>(n));
    } else {
      out.push_back(0xc6);
      putBE<u32>(out, static_cast<u32>(n));
    }
    putBytes(out, b.data(), n);
  } else if (v.isArray()) {
    const auto &a = v.asArray();
    const usize n = a.size();
    if (n < 16) out.push_back(static_cast<u8>(0x90 | n));
    else if (n <= 0xFFFF) {
      out.push_back(0xdc);
      putBE<u16>(out, static_cast<u16>(n));
    } else {
      out.push_back(0xdd);
      putBE<u32>(out, static_cast<u32>(n));
    }
    for (const auto &e : a) encodeValue(out, e);
  } else { // map
    const auto &m = v.asMap();
    const usize n = m.size();
    if (n < 16) out.push_back(static_cast<u8>(0x80 | n));
    else if (n <= 0xFFFF) {
      out.push_back(0xde);
      putBE<u16>(out, static_cast<u16>(n));
    } else {
      out.push_back(0xdf);
      putBE<u32>(out, static_cast<u32>(n));
    }
    for (const auto &[k, val] : m) {
      encodeString(out, k);
      encodeValue(out, val);
    }
  }
}

class Decoder {
public:
  explicit Decoder(const std::vector<u8> &bytes) : bytes_(bytes) {}

  Value decodeDocument() {
    Value v = decodeValue();
    if (pos_ != bytes_.size()) throw ParseError("msgpack: trailing bytes");
    return v;
  }

private:
  const std::vector<u8> &bytes_;
  usize pos_ = 0;
  usize depth_ = 0;

  u8 next() {
    if (pos_ >= bytes_.size()) throw ParseError("msgpack: unexpected end of input");
    return bytes_[pos_++];
  }

  template <typename T> T getBE() {
    if (pos_ + sizeof(T) > bytes_.size()) throw ParseError("msgpack: unexpected end of input");
    u8 buf[sizeof(T)];
    for (usize i = 0; i < sizeof(T); ++i) buf[sizeof(T) - 1 - i] = bytes_[pos_ + i];
    pos_ += sizeof(T);
    T value;
    std::memcpy(&value, buf, sizeof(T));
    return value;
  }

  std::string getString(usize n) {
    if (pos_ + n > bytes_.size()) throw ParseError("msgpack: string overruns input");
    std::string s(reinterpret_cast<const char *>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bin getBin(usize n) {
    if (pos_ + n > bytes_.size()) throw ParseError("msgpack: bin overruns input");
    Bin b(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
          bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  /// Enter a container of `n` elements. Containers decode by recursion, so
  /// the depth is bounded; and every element takes at least one byte, so a
  /// count beyond the remaining input is corrupt (and must not reach a
  /// reserve()).
  void enterContainer(usize n) {
    if (depth_ == kMaxNesting)
      throw ParseError("msgpack: nesting deeper than " + std::to_string(kMaxNesting) + " levels");
    if (n > bytes_.size() - pos_) throw ParseError("msgpack: container overruns input");
    ++depth_;
  }

  Array getArray(usize n) {
    enterContainer(n);
    Array a;
    a.reserve(n);
    for (usize i = 0; i < n; ++i) a.push_back(decodeValue());
    --depth_;
    return a;
  }

  Map getMap(usize n) {
    enterContainer(n);
    Map m;
    for (usize i = 0; i < n; ++i) {
      Value key = decodeValue();
      if (!key.isString()) throw ParseError("msgpack: non-string map key");
      m.emplace(key.asString(), decodeValue());
    }
    --depth_;
    return m;
  }

  Value decodeValue() {
    const u8 tag = next();
    if (tag < 0x80) return Value(static_cast<i64>(tag));              // positive fixint
    if (tag >= 0xe0) return Value(static_cast<i64>(static_cast<i8>(tag))); // negative fixint
    if ((tag & 0xf0) == 0x80) return Value(getMap(tag & 0x0f));       // fixmap
    if ((tag & 0xf0) == 0x90) return Value(getArray(tag & 0x0f));     // fixarray
    if ((tag & 0xe0) == 0xa0) return Value(getString(tag & 0x1f));    // fixstr
    switch (tag) {
    case 0xc0: return Value(nullptr);
    case 0xc2: return Value(false);
    case 0xc3: return Value(true);
    case 0xc4: return Value(getBin(next()));
    case 0xc5: return Value(getBin(getBE<u16>()));
    case 0xc6: return Value(getBin(getBE<u32>()));
    case 0xca: {
      const u32 bits = getBE<u32>();
      float f;
      std::memcpy(&f, &bits, sizeof(float));
      return Value(static_cast<double>(f));
    }
    case 0xcb: {
      const u64 bits = getBE<u64>();
      double d;
      std::memcpy(&d, &bits, sizeof(double));
      return Value(d);
    }
    case 0xcc: return Value(static_cast<i64>(next()));
    case 0xcd: return Value(static_cast<i64>(getBE<u16>()));
    case 0xce: return Value(static_cast<i64>(getBE<u32>()));
    case 0xcf: return Value(static_cast<i64>(getBE<u64>()));
    case 0xd0: return Value(static_cast<i64>(static_cast<i8>(next())));
    case 0xd1: return Value(static_cast<i64>(static_cast<i16>(getBE<u16>())));
    case 0xd2: return Value(static_cast<i64>(static_cast<i32>(getBE<u32>())));
    case 0xd3: return Value(static_cast<i64>(getBE<u64>()));
    case 0xd9: return Value(getString(next()));
    case 0xda: return Value(getString(getBE<u16>()));
    case 0xdb: return Value(getString(getBE<u32>()));
    case 0xdc: return Value(getArray(getBE<u16>()));
    case 0xdd: return Value(getArray(getBE<u32>()));
    case 0xde: return Value(getMap(getBE<u16>()));
    case 0xdf: return Value(getMap(getBE<u32>()));
    default: throw ParseError("msgpack: unsupported tag " + std::to_string(tag));
    }
  }
};

} // namespace

bool Value::asBool() const {
  if (!isBool()) throw ParseError("msgpack: expected bool");
  return std::get<bool>(data_);
}
i64 Value::asInt() const {
  if (!isInt()) throw ParseError("msgpack: expected int");
  return std::get<i64>(data_);
}
double Value::asDouble() const {
  if (isInt()) return static_cast<double>(std::get<i64>(data_));
  if (!isDouble()) throw ParseError("msgpack: expected double");
  return std::get<double>(data_);
}
const std::string &Value::asString() const {
  if (!isString()) throw ParseError("msgpack: expected string");
  return std::get<std::string>(data_);
}
const Array &Value::asArray() const {
  if (!isArray()) throw ParseError("msgpack: expected array");
  return std::get<Array>(data_);
}
const Map &Value::asMap() const {
  if (!isMap()) throw ParseError("msgpack: expected map");
  return std::get<Map>(data_);
}
const Bin &Value::asBin() const {
  if (!isBin()) throw ParseError("msgpack: expected bin");
  return std::get<Bin>(data_);
}
const Value &Value::at(const std::string &key) const {
  const auto &m = asMap();
  const auto it = m.find(key);
  if (it == m.end()) throw ParseError("msgpack: missing field '" + key + "'");
  return it->second;
}

std::vector<u8> encode(const Value &v) {
  std::vector<u8> out;
  encodeValue(out, v);
  return out;
}

Value decode(const std::vector<u8> &bytes) { return Decoder(bytes).decodeDocument(); }

} // namespace sv::msgpack
