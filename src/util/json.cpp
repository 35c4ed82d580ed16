#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <cmath>
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

namespace {

/// First member of the sorted `members` whose key is not less than `key`.
template <typename Members>
auto key_lower_bound(Members& members, std::string_view key) {
  return std::lower_bound(
      members.begin(), members.end(), key,
      [](const JsonObject::value_type& member, std::string_view k) {
        return std::string_view(member.first) < k;
      });
}

}  // namespace

JsonObject::JsonObject(std::vector<value_type> members)
    : members_(std::move(members)) {
  const auto key_less = [](const value_type& a, const value_type& b) {
    return a.first < b.first;
  };
  const auto key_not_less = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  // Canonical input (every dump() of ours) is already strictly sorted.
  if (std::adjacent_find(members_.begin(), members_.end(), key_not_less) ==
      members_.end()) {
    return;
  }
  // Stable, so among equal keys input order survives and the last one
  // is the value kept.
  std::stable_sort(members_.begin(), members_.end(), key_less);
  auto out = members_.begin();
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    const auto next = std::next(it);
    if (next != members_.end() && next->first == it->first) {
      continue;  // a later duplicate overrides this one
    }
    if (out != it) {
      *out = std::move(*it);
    }
    ++out;
  }
  members_.erase(out, members_.end());
}

JsonObject::const_iterator JsonObject::find(std::string_view key) const {
  const auto it = key_lower_bound(members_, key);
  return it != members_.end() && it->first == key ? it : members_.end();
}

Json& JsonObject::operator[](std::string_view key) {
  const auto it = key_lower_bound(members_, key);
  if (it != members_.end() && it->first == key) {
    return it->second;
  }
  return members_.emplace(it, std::string(key), Json())->second;
}

Json& JsonObject::insert_or_assign(std::string_view key, Json value) {
  // Builders mostly add keys in sorted order: append without a search.
  if (members_.empty() || std::string_view(members_.back().first) < key) {
    return members_.emplace_back(std::string(key), std::move(value)).second;
  }
  const auto it = key_lower_bound(members_, key);
  if (it->first == key) {
    it->second = std::move(value);
    return it->second;
  }
  return members_.emplace(it, std::string(key), std::move(value))->second;
}

bool JsonObject::emplace(std::string_view key, Json value) {
  const auto it = key_lower_bound(members_, key);
  if (it != members_.end() && it->first == key) {
    return false;
  }
  members_.emplace(it, std::string(key), std::move(value));
  return true;
}

std::size_t JsonObject::erase(std::string_view key) {
  const auto it = key_lower_bound(members_, key);
  if (it == members_.end() || it->first != key) {
    return 0;
  }
  members_.erase(it);
  return 1;
}

const Json& Json::at(std::string_view key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) {
    throw JsonError("Json: missing key '" + std::string(key) + "'");
  }
  return it->second;
}

bool Json::contains(std::string_view key) const {
  return find(key) != nullptr;
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Json& Json::set(std::string_view key, Json value) {
  if (!is_object()) {
    value_ = JsonObject{};
  }
  std::get<JsonObject>(value_).insert_or_assign(key, std::move(value));
  return *this;
}

std::size_t Json::erase(std::string_view key) {
  return is_object() ? std::get<JsonObject>(value_).erase(key) : 0;
}

Json& Json::push_back(Json value) {
  if (!is_array()) {
    value_ = JsonArray{};
  }
  std::get<JsonArray>(value_).push_back(std::move(value));
  return *this;
}

void dump_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char* escape = nullptr;
    switch (s[i]) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\t': escape = "\\t"; break;
      case '\r': escape = "\\r"; break;
      case '\b': escape = "\\b"; break;
      case '\f': escape = "\\f"; break;
      default:
        if (static_cast<unsigned char>(s[i]) >= 0x20) {
          continue;
        }
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      // The other control characters, as printf's "\\u%04x" prints them.
      static constexpr char kHex[] = "0123456789abcdef";
      const auto c = static_cast<unsigned char>(s[i]);
      const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out.append(code, sizeof(code));
    }
  }
  out.append(s.data() + run, s.size() - run);
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

namespace {

/// Scratch stacks shared by one thread's parses.  The members and
/// elements of the containers still open collect here; a container
/// that closes moves its own out into an exact-size vector, so each
/// container costs one allocation.
struct ParseScratch {
  std::vector<JsonObject::value_type> members;
  std::vector<Json> elements;
};

/// Entries a thread keeps between parses; past this a parse hands the
/// scratch memory back, so one large document does not pin its peak.
constexpr std::size_t kScratchKeep = 256;

template <typename T>
void release_scratch(std::vector<T>& stack) {
  stack.clear();
  if (stack.capacity() > kScratchKeep) {
    std::vector<T>().swap(stack);
  }
}

/// The six characters isspace accepts in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Recursive-descent JSON parser over a string with a cursor.
class Parser {
 public:
  Parser(std::string_view text, ParseScratch& scratch)
      : text_(text), scratch_(scratch) {}

  Json parse_document() {
    // What a failed parse leaves on the stacks is dropped on the way out.
    struct Release {
      ParseScratch& scratch;
      ~Release() {
        release_scratch(scratch.members);
        release_scratch(scratch.elements);
      }
    } release{scratch_};
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
    while (pos_ < text_.size() && is_space(text_[pos_])) {
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
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

  /// Moves stack[base, end) out into an exact-size vector.
  template <typename T>
  static std::vector<T> pop_from(std::vector<T>& stack, std::size_t base) {
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<T> out(std::make_move_iterator(first),
                       std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
    return out;
  }

  Json parse_object() {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      take();
      return Json(JsonObject{});
    }
    std::vector<JsonObject::value_type>& stack = scratch_.members;
    const std::size_t base = stack.size();
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Parsed before the push: nested containers use the same stack.
      Json value = parse_value();
      stack.emplace_back(std::move(key), std::move(value));
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
    // Sorts and drops earlier duplicates only when out of order.
    return Json(JsonObject(pop_from(stack, base)));
  }

  Json parse_array() {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      take();
      return Json(JsonArray{});
    }
    std::vector<Json>& stack = scratch_.elements;
    const std::size_t base = stack.size();
    while (true) {
      Json element = parse_value();
      stack.push_back(std::move(element));
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
    return Json(pop_from(stack, base));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      std::size_t run_end = pos_;
      while (run_end < text_.size() && text_[run_end] != '"' &&
             text_[run_end] != '\\') {
        ++run_end;
      }
      out.append(text_.data() + pos_, run_end - pos_);
      pos_ = run_end;
      if (take() == '"') {
        break;
      }
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
          // One BMP code point to UTF-8; surrogate halves are not joined.
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
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      take();
    }
    while (pos_ < text_.size() &&
           (is_digit(text_[pos_]) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
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

  const std::string_view text_;
  ParseScratch& scratch_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
};

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::size_t pad =
      pretty ? static_cast<std::size_t>(indent * (depth + 1)) : 0;
  const std::size_t close_pad =
      pretty ? static_cast<std::size_t>(indent * depth) : 0;

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
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (pretty) {
        out += '\n';
        out.append(pad, ' ');
      }
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) {
        out += ',';
      }
    }
    if (pretty) {
      out += '\n';
      out.append(close_pad, ' ');
    }
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      if (pretty) {
        out += '\n';
        out.append(pad, ' ');
      }
      dump_string(out, key);
      out += pretty ? ": " : ":";
      value.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) {
        out += ',';
      }
    }
    if (pretty) {
      out += '\n';
      out.append(close_pad, ' ');
    }
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  thread_local ParseScratch scratch;
  Parser parser(text, scratch);
  return parser.parse_document();
}

}  // namespace elpc::util
