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

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  template <typename T>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<T>(value_);
  }

  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// The encoders dump() prints strings and numbers with, for writers that
/// emit a canonical document straight to text (graph::append_json): the
/// same bytes dump() gives for Json(s) / Json(d), appended to `out`.
void dump_string(std::string& out, std::string_view s);
void dump_number(std::string& out, double d);

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
