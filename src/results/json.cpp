#include "results/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace results {

namespace {

class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw tl::ConfigError("JSON parse error at offset " +
                          std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  // Containers recurse; an unbounded nesting depth would let 1 MiB of '['
  // overflow the stack.  Real documents (stores, plans, frames) nest < 10.
  static constexpr int kMaxDepth = 64;

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The store only ever writes ASCII; decode escapes to UTF-8 so
          // foreign files still round-trip.  Surrogate pairs combine into
          // one code point; a lone surrogate would produce invalid UTF-8,
          // so it is rejected.
          unsigned cp = parse_hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  // number := -? digits ('.' digits)? ([eE] [+-]? digits)?  — the full token
  // must validate; std::stod alone would silently accept a valid prefix of
  // garbage like "1-2" or "1.2.3".
  static bool valid_number(const std::string& t, bool& integral) {
    integral = true;
    std::size_t i = 0;
    const auto digits = [&] {
      const std::size_t before = i;
      while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) {
        ++i;
      }
      return i > before;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (!digits()) return false;
    if (i < t.size() && t[i] == '.') {
      integral = false;
      ++i;
      if (!digits()) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      integral = false;
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    bool integral = true;
    if (!valid_number(tok, integral)) fail("bad number '" + tok + "'");
    try {
      if (integral) return Json(static_cast<std::int64_t>(std::stoll(tok)));
    } catch (const std::out_of_range&) {
      // A valid integer wider than 64 bits: degrade to double.
    } catch (const std::exception&) {
      fail("bad number '" + tok + "'");
    }
    try {
      return Json(std::stod(tok));
    } catch (const std::exception&) {
      fail("bad number '" + tok + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void append_escaped(std::string& out, const std::string& s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v, std::int64_t i, bool integral) {
  if (integral) {
    out += std::to_string(i);
    return;
  }
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; the store never produces them, but be safe.
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  TL_REQUIRE(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double Json::as_double() const {
  TL_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  TL_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return integral_ ? int_ : static_cast<std::int64_t>(num_);
}

const std::string& Json::as_string() const {
  TL_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return str_;
}

const Json::Array& Json::items() const {
  TL_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  return arr_;
}

const Json::Object& Json::members() const {
  TL_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return obj_;
}

const Json* Json::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::get_double(const std::string& key, double fallback) const {
  const Json* v = get(key);
  return v && v->kind_ == Kind::kNumber ? v->as_double() : fallback;
}

std::int64_t Json::get_int(const std::string& key, std::int64_t fallback) const {
  const Json* v = get(key);
  return v && v->kind_ == Kind::kNumber ? v->as_int() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* v = get(key);
  return v && v->kind_ == Kind::kString ? v->as_string() : fallback;
}

void Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  TL_REQUIRE(kind_ == Kind::kArray, "push_back on non-array JSON value");
  arr_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  TL_REQUIRE(kind_ == Kind::kObject, "set on non-object JSON value");
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(key, std::move(v));
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, num_, int_, integral_); break;
    case Kind::kString: append_escaped(out, str_); break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += "[";
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (indent > 0) out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ",";
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += "]";
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      out += nl;
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (indent > 0) out += pad;
        append_escaped(out, obj_[i].first);
        out += indent > 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < obj_.size()) out += ",";
        out += nl;
      }
      if (indent > 0) out += close_pad;
      out += "}";
      break;
    }
  }
}

}  // namespace results
