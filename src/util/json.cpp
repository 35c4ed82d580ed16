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

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// A byte the number scan takes into a number's token.
bool is_number_byte(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

/// Builds the Json tree of the value at a cursor.
class TreeReader {
 public:
  TreeReader(JsonCursor& in, ParseScratch& scratch)
      : in_(in), scratch_(scratch) {}

  /// The document, with `key`'s object values at the top level handed
  /// to `read` when it is set.
  Json document(std::string_view key,
                const std::function<void(JsonCursor&)>* read) {
    // What a failed parse leaves on the stacks is dropped on the way out.
    struct Release {
      ParseScratch& scratch;
      ~Release() {
        release_scratch(scratch.members);
        release_scratch(scratch.elements);
      }
    } release{scratch_};
    Json v = read != nullptr && in_.peek() == JsonCursor::Kind::kObject
                 ? object(key, read)
                 : value();
    in_.finish();
    return v;
  }

 private:
  Json value() {
    switch (in_.peek()) {
      case JsonCursor::Kind::kObject: return object({}, nullptr);
      case JsonCursor::Kind::kArray: return array();
      case JsonCursor::Kind::kString:
        return Json(std::string(in_.read_string()));
      case JsonCursor::Kind::kBool: return Json(in_.read_bool());
      case JsonCursor::Kind::kNull: in_.read_null(); return Json(nullptr);
      case JsonCursor::Kind::kNumber: break;
    }
    return Json(in_.read_number());
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

  Json object(std::string_view key,
              const std::function<void(JsonCursor&)>* read) {
    in_.begin_object();
    std::vector<JsonObject::value_type>& stack = scratch_.members;
    const std::size_t base = stack.size();
    bool handed_last = false;  // the last `key` member went to `read`
    std::string_view name;
    while (in_.next_key(name)) {
      if (read != nullptr && name == key) {
        handed_last = in_.peek() == JsonCursor::Kind::kObject;
        if (handed_last) {
          (*read)(in_);
          continue;
        }
      }
      // The key is copied before the value is read, which may reuse the
      // view's storage; the value is read before the push, since nested
      // containers use the same stack.
      std::string name_copy(name);
      Json v = value();
      stack.emplace_back(std::move(name_copy), std::move(v));
    }
    if (handed_last) {
      stack.erase(std::remove_if(stack.begin() +
                                     static_cast<std::ptrdiff_t>(base),
                                 stack.end(),
                                 [key](const JsonObject::value_type& m) {
                                   return m.first == key;
                                 }),
                  stack.end());
    }
    if (stack.size() == base) {
      return Json(JsonObject{});
    }
    // Sorts and drops earlier duplicates only when out of order.
    return Json(JsonObject(pop_from(stack, base)));
  }

  Json array() {
    in_.begin_array();
    std::vector<Json>& stack = scratch_.elements;
    const std::size_t base = stack.size();
    while (in_.next_element()) {
      Json element = value();
      stack.push_back(std::move(element));
    }
    if (stack.size() == base) {
      return Json(JsonArray{});
    }
    return Json(pop_from(stack, base));
  }

  JsonCursor& in_;
  ParseScratch& scratch_;
};

}  // namespace

void JsonCursor::fail(const std::string& what) const {
  throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) +
                       ": " + what);
}

void JsonCursor::fail_expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

void JsonCursor::open(char c) {
  skip_ws();
  (void)peek_char();
  // Recursion (and the recursive destructor of what a tree reader
  // builds) is bounded by the nesting cap, whatever the peer sends.
  if (++depth_ > kMaxJsonDepth) {
    fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
  }
  expect(c);
  first_ = true;
}

void JsonCursor::begin_object() { open('{'); }

void JsonCursor::begin_array() { open('['); }

bool JsonCursor::next_key(std::string_view& key) {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    const char c = take();
    if (c == '}') {
      --depth_;
      return false;
    }
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}' in object");
    }
    skip_ws();
  }
  key = parse_string();
  skip_ws();
  expect(':');
  return true;
}

bool JsonCursor::next_element() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  const char c = take();
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') {
    --pos_;
    fail("expected ',' or ']' in array");
  }
  return true;
}

bool JsonCursor::read_bool() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  (void)peek_char();
  fail("invalid literal");
}

void JsonCursor::read_null() {
  skip_ws();
  if (text_.substr(pos_, 4) != "null") {
    (void)peek_char();
    fail("invalid literal");
  }
  pos_ += 4;
}

std::string_view JsonCursor::read_string() {
  skip_ws();
  return parse_string();
}

std::string_view JsonCursor::parse_string() {
  expect('"');
  // Most strings hold no escape: then the string is the text up to the
  // closing quote, and nothing is copied.
  std::size_t run_end = pos_;
  while (run_end < text_.size() && text_[run_end] != '"' &&
         text_[run_end] != '\\') {
    ++run_end;
  }
  if (run_end < text_.size() && text_[run_end] == '"') {
    const std::string_view plain = text_.substr(pos_, run_end - pos_);
    pos_ = run_end + 1;
    return plain;
  }
  std::string& out = decoded_;
  out.clear();
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

double JsonCursor::read_number() {
  skip_ws();
  const std::size_t start = pos_;
  // The token is the longest run of number bytes.  from_chars straight
  // on the text stops at the token's end when the token is a plain
  // number, so the common case needs no separate scan for it.  Only a
  // token opening with a digit (after an optional '-') goes this way:
  // from_chars would also take "inf" and "nan", which are no token.
  const char* const first = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  const char* const lead = first < end && *first == '-' ? first + 1 : first;
  if (lead < end && is_digit(*lead)) {
    double d = 0.0;
    const std::from_chars_result r = std::from_chars(first, end, d);
    if (r.ec == std::errc() && (r.ptr == end || !is_number_byte(*r.ptr))) {
      pos_ += static_cast<std::size_t>(r.ptr - first);
      return d;
    }
  }
  if (peek_char() == '-') {
    ++pos_;
  }
  while (pos_ < text_.size() && is_number_byte(text_[pos_])) {
    ++pos_;
  }
  if (pos_ == start) {
    fail("invalid number");
  }
  const char* const last = text_.data() + pos_;
  double d = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, d);
  if (r.ec == std::errc() && r.ptr == last) {
    return d;
  }
  // The rare rest keeps strtod's verdict: out-of-range magnitudes
  // (1e400 -> inf, 1e-400 -> 0), a leading '+', and the rejections.
  const std::string token(first, last);
  char* token_end = nullptr;
  d = std::strtod(token.c_str(), &token_end);
  if (token_end == nullptr || *token_end != '\0') {
    pos_ = start;
    fail("invalid number '" + token + "'");
  }
  return d;
}

void JsonCursor::skip_value() {
  switch (peek()) {
    case Kind::kObject:
      begin_object();
      for (std::string_view key; next_key(key);) {
        skip_value();
      }
      return;
    case Kind::kArray:
      begin_array();
      while (next_element()) {
        skip_value();
      }
      return;
    case Kind::kString: (void)read_string(); return;
    case Kind::kBool: (void)read_bool(); return;
    case Kind::kNull: read_null(); return;
    case Kind::kNumber: (void)read_number(); return;
  }
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) {
    fail("trailing characters after document");
  }
}

void dump_newline(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
  }
}

void dump_with_member(std::string& out, const Json& doc, int indent,
                      int depth, std::string_view key,
                      const std::function<void(std::string&, int)>& write) {
  const char* separator = "";
  const auto open_member = [&](std::string_view name) {
    out += separator;
    separator = ",";
    dump_newline(out, indent, depth + 1);
    dump_string(out, name);
    out += indent > 0 ? ": " : ":";
  };
  bool written = false;
  out += '{';
  for (const auto& [name, value] : doc.as_object()) {
    if (!written && key < std::string_view(name)) {
      open_member(key);
      write(out, depth + 1);
      written = true;
    }
    open_member(name);
    value.dump_to(out, indent, depth + 1);
  }
  if (!written) {
    open_member(key);
    write(out, depth + 1);
  }
  dump_newline(out, indent, depth);
  out += '}';
}

void Json::dump_to(std::string& out, int indent, int depth) const {
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
      dump_newline(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) {
        out += ',';
      }
    }
    dump_newline(out, indent, depth);
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
      dump_newline(out, indent, depth + 1);
      dump_string(out, key);
      out += indent > 0 ? ": " : ":";
      value.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) {
        out += ',';
      }
    }
    dump_newline(out, indent, depth);
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// One thread's scratch stacks: parses on one thread never overlap.
ParseScratch& thread_scratch() {
  thread_local ParseScratch scratch;
  return scratch;
}

}  // namespace

Json Json::parse(std::string_view text) {
  JsonCursor in(text);
  return TreeReader(in, thread_scratch()).document({}, nullptr);
}

Json Json::parse(std::string_view text, std::string_view key,
                 const std::function<void(JsonCursor&)>& read) {
  JsonCursor in(text);
  return TreeReader(in, thread_scratch()).document(key, &read);
}

}  // namespace elpc::util
