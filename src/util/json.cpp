#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace elpc::util {

bool Json::as_bool() const {
  if (!is_bool()) {
    throw JsonError("Json: not a bool");
  }
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) {
    throw JsonError("Json: not a number");
  }
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  const double rounded = std::nearbyint(d);
  if (std::abs(d - rounded) > 1e-9) {
    throw JsonError("Json: number is not integral");
  }
  // The cast is undefined outside int64's range; [-2^63, 2^63) as
  // doubles, written so NaN fails too.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(rounded >= -kLimit && rounded < kLimit)) {
    throw JsonError("Json: integer out of range");
  }
  return static_cast<std::int64_t>(rounded);
}

const std::string& Json::as_string() const {
  if (!is_string()) {
    throw JsonError("Json: not a string");
  }
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) {
    throw JsonError("Json: not an array");
  }
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) {
    throw JsonError("Json: not an object");
  }
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw JsonError("Json: missing key '" + key + "'");
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Json& Json::set(const std::string& key, Json value) {
  if (!is_object()) {
    value_ = JsonObject{};
  }
  std::get<JsonObject>(value_)[key] = std::move(value);
  return *this;
}

Json& Json::push_back(Json value) {
  if (!is_array()) {
    value_ = JsonArray{};
  }
  std::get<JsonArray>(value_).push_back(std::move(value));
  return *this;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; serialize as null (documented lossy case).
    out += "null";
    return;
  }
  // std::to_chars is specified to print what printf's "%lld" and
  // "%.17g" print, without the format-string and locale machinery.
  char buf[40];
  const std::to_chars_result r =
      d == std::nearbyint(d) && std::abs(d) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Recursive-descent JSON parser over a string with a cursor.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  char take() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t len = 0;
    while (lit[len] != '\0') {
      ++len;
    }
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Recursion (and the recursive destructor of what it builds) is
        // bounded by the nesting cap, whatever the peer sends.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      take();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') {
        break;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      take();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') {
        break;
      }
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') {
        break;
      }
      if (c == '\\') {
        const char esc = take();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("invalid escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      take();
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("invalid number");
    }
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double d = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, d);
    if (r.ec == std::errc() && r.ptr == last) {
      return Json(d);
    }
    // The rare rest keeps strtod's verdict: out-of-range magnitudes
    // (1e400 -> inf, 1e-400 -> 0), a leading '+', and the rejections.
    const std::string token(first, last);
    char* end = nullptr;
    d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
    return Json(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, as_number());
  } else if (is_string()) {
    dump_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) {
        out += ',';
      }
      out += nl;
    }
    out += close_pad;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      dump_string(out, key);
      out += colon;
      value.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) {
        out += ',';
      }
      out += nl;
    }
    out += close_pad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace elpc::util
