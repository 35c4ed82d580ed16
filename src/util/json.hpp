#pragma once
// Minimal JSON value model, parser, and serializer.
//
// Used to persist scenarios (pipeline + network + endpoints) and
// experiment results so that a reproduced table can be diffed across
// runs, and for every daemon wire frame.  Supports the full JSON
// grammar.  A \uXXXX escape is decoded to the UTF-8 bytes of that one
// BMP code point; a surrogate pair is not joined, so each half becomes
// its own 3-byte sequence (the library never emits \u escapes above
// U+001F).
//
// Objects are flat: one vector of (key, value) members kept sorted by
// key, in std::string's operator< order (unsigned bytes), so dump()
// prints keys sorted and output is canonical and diffable.  A vector
// costs one allocation per object where a node-based map costs one per
// member.
//
// Reference invalidation: a vector-backed object moves its members when
// it grows or shrinks.  Any Json* or Json& into an object (from find,
// at, operator[], insert_or_assign, or iteration) is invalidated by the
// next insert or erase on that same object (set, operator[] of a new
// key, emplace, insert_or_assign of a new key, erase).  Assigning to an
// existing key does not invalidate.  Arrays follow std::vector's rules
// (push_back may invalidate element references).  Re-look the member up
// after mutating its parent instead of holding the old pointer.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace elpc::util {

class Json;

using JsonArray = std::vector<Json>;

/// A JSON object: members sorted by key, keys unique.  Keeps the subset
/// of std::map's interface the codebase uses; iteration is const-only,
/// so keys cannot be edited out of order through an iterator.
class JsonObject {
 public:
  using value_type = std::pair<std::string, Json>;
  using const_iterator = std::vector<value_type>::const_iterator;

  JsonObject() = default;
  /// Members in any order; sorted here, and when a key repeats the last
  /// value wins (what a sequence of obj[key] = value assignments gives).
  explicit JsonObject(std::vector<value_type> members);

  [[nodiscard]] const_iterator begin() const;
  [[nodiscard]] const_iterator end() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const;

  /// end() when absent.
  [[nodiscard]] const_iterator find(std::string_view key) const;
  [[nodiscard]] std::size_t count(std::string_view key) const;
  /// The member, inserted as null when absent.
  Json& operator[](std::string_view key);
  /// Inserts or overwrites; returns the stored value.
  Json& insert_or_assign(std::string_view key, Json value);
  /// Inserts only when absent (never overwrites); true when inserted.
  bool emplace(std::string_view key, Json value);
  /// Removes the member; the count removed (0 or 1).
  std::size_t erase(std::string_view key);

  friend bool operator==(const JsonObject& a, const JsonObject& b);

 private:
  std::vector<value_type> members_;
};

/// Deepest array/object nesting Json::parse accepts; deeper documents
/// are rejected with JsonError.  No schema in this codebase nests deeper
/// than ~6, and the cap bounds the parser's recursion on peer input.
inline constexpr int kMaxJsonDepth = 64;

/// Thrown on malformed input or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown on text that is not JSON ("JSON parse error at offset N:
/// ..."), as opposed to a well-formed value of the wrong shape: lets a
/// typed reader that defers its schema errors let syntax errors through.
class JsonParseError : public JsonError {
 public:
  using JsonError::JsonError;
};

class JsonCursor;

/// Immutable-ish JSON value (null, bool, number, string, array, object).
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}                // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}              // NOLINT(google-explicit-constructor)
  Json(int i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(std::size_t i) : value_(static_cast<double>(i)) {}   // NOLINT
  Json(const char* s) : value_(std::string(s)) {}           // NOLINT
  Json(std::string s) : value_(std::move(s)) {}             // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}               // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}              // NOLINT

  [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
  [[nodiscard]] bool is_bool() const { return holds<bool>(); }
  [[nodiscard]] bool is_number() const { return holds<double>(); }
  [[nodiscard]] bool is_string() const { return holds<std::string>(); }
  [[nodiscard]] bool is_array() const { return holds<JsonArray>(); }
  [[nodiscard]] bool is_object() const { return holds<JsonObject>(); }

  /// Typed accessors; throw JsonError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// Integral numbers within int64's range; JsonError otherwise.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member access; throws JsonError when absent or not an object.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Pointer to the member, or nullptr when absent (or not an object) —
  /// single-lookup access to optional fields.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Mutable object/array builders.  set() overwrites an existing key
  /// and appends without moving members when `key` sorts last.
  Json& set(std::string_view key, Json value);
  Json& push_back(Json value);
  /// Removes an object member; the count removed (0 when absent or not
  /// an object).
  std::size_t erase(std::string_view key);

  /// Serializes canonically (sorted keys, shortest round-trip numbers).
  /// With `indent > 0`, pretty-prints using that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; trailing non-whitespace, and
  /// nesting deeper than kMaxJsonDepth, are errors.  Duplicate object
  /// keys keep the last value.
  [[nodiscard]] static Json parse(std::string_view text);

  /// parse(), except that when the document is an object, each of its
  /// top-level `key` members whose value is an object is not built:
  /// `read` is called with the cursor at that value and must consume
  /// exactly that value.  The returned tree holds `key` only when its
  /// last occurrence was built (the last duplicate wins, as in parse).
  /// Every other rule, and every error and its offset, is parse()'s.
  [[nodiscard]] static Json parse(std::string_view text, std::string_view key,
                                  const std::function<void(JsonCursor&)>& read);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }

  void dump_to(std::string& out, int indent, int depth) const;
  friend void dump_with_member(
      std::string& out, const Json& doc, int indent, int depth,
      std::string_view key,
      const std::function<void(std::string&, int)>& write);

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// The encoders dump() prints strings and numbers with, for writers that
/// emit a canonical document straight to text (graph::append_json): the
/// same bytes dump() gives for Json(s) / Json(d), appended to `out`.
void dump_string(std::string& out, std::string_view s);
void dump_number(std::string& out, double d);
/// Appends what dump(indent) prints for the object `doc` nested `depth`
/// levels deep, with one more member, `key` (absent from `doc`), at its
/// sorted place: `write` appends that member's value, given the depth
/// the value sits at.  Lets a writer splice text it prints itself
/// (graph::append_json) into a document without parsing it into a tree.
void dump_with_member(std::string& out, const Json& doc, int indent,
                      int depth, std::string_view key,
                      const std::function<void(std::string&, int)>& write);
/// What dump(indent) prints before a member or element nested `depth`
/// levels deep: a line break and indent * depth spaces (nothing when
/// indent is 0).
void dump_newline(std::string& out, int indent, int depth);

/// A cursor over JSON text: the one grammar behind Json::parse, also
/// used by typed readers that build their own values straight from the
/// text (graph::read_network_json).  Whoever reads through it, a syntax
/// error throws the same JsonParseError, "JSON parse error at offset N:
/// ...", with N an offset into the whole text; nesting deeper than
/// kMaxJsonDepth is one of them.
///
/// A container is read by begin_object() / begin_array(), then
/// next_key() / next_element() until it returns false; between two such
/// calls the caller reads or skips exactly one value.
class JsonCursor {
 public:
  /// A value's kind, told by its first byte as the grammar dispatches on
  /// it; a malformed literal or number is found only when read.
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Skips whitespace and names the next value's kind.
  [[nodiscard]] Kind peek() {
    skip_ws();
    switch (peek_char()) {
      case '{': return Kind::kObject;
      case '[': return Kind::kArray;
      case '"': return Kind::kString;
      case 't':
      case 'f': return Kind::kBool;
      case 'n': return Kind::kNull;
      default: return Kind::kNumber;
    }
  }

  void begin_object();
  /// The next member's key, in `key`, with the cursor at its value; false
  /// (and the object closed) at its '}'.  Like read_string's, the view
  /// lasts until the next call on the cursor.
  bool next_key(std::string_view& key);
  void begin_array();
  /// True with the cursor at the next element; false (and the array
  /// closed) at its ']'.
  bool next_element();

  [[nodiscard]] double read_number();
  /// The decoded string, valid until the next call on the cursor: a view
  /// of the text itself when the string holds no escape.
  [[nodiscard]] std::string_view read_string();
  [[nodiscard]] bool read_bool();
  void read_null();
  /// Reads and drops one value of any kind, checking it as parse does.
  void skip_value();

  /// Checks that only whitespace is left ("trailing characters after
  /// document").
  void finish();

  /// Offset of the next unread byte.
  [[nodiscard]] std::size_t offset() const { return pos_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void fail_expected(char c) const;

  // The byte-level steps, inline: every value and member goes through
  // them.  The six bytes isspace accepts in the C locale are whitespace.
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\v' && c != '\f' &&
          c != '\r') {
        return;
      }
      ++pos_;
    }
  }
  char peek_char() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }
  char take() {
    const char c = peek_char();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail_expected(c);
    }
  }
  void open(char c);
  std::string_view parse_string();

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open at pos_
  /// The container just opened has not had its first member yet.
  bool first_ = false;
  /// The last string read, decoded, when it held an escape.
  std::string decoded_;
};

// JsonObject's inline members need Json complete.
inline JsonObject::const_iterator JsonObject::begin() const {
  return members_.begin();
}
inline JsonObject::const_iterator JsonObject::end() const {
  return members_.end();
}
inline std::size_t JsonObject::size() const { return members_.size(); }
inline bool JsonObject::empty() const { return members_.empty(); }
inline std::size_t JsonObject::count(std::string_view key) const {
  return find(key) == end() ? 0 : 1;
}
inline bool operator==(const JsonObject& a, const JsonObject& b) {
  return a.members_ == b.members_;
}

}  // namespace elpc::util
