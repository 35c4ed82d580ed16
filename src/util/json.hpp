#pragma once
// Minimal JSON value model, parser, and serializer.
//
// Used to persist scenarios (pipeline + network + endpoints) and
// experiment results so that a reproduced table can be diffed across
// runs.  Supports the full JSON grammar except \u escapes beyond the
// Basic Latin range (which the library never emits).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace elpc::util {

class Json;

using JsonArray = std::vector<Json>;
/// std::map keeps object keys sorted, giving canonical, diffable output.
using JsonObject = std::map<std::string, Json>;

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
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Pointer to the member, or nullptr when absent (or not an object) —
  /// single-lookup access to optional fields.
  [[nodiscard]] const Json* find(const std::string& key) const;

  /// Mutable object/array builders.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Serializes canonically (sorted keys, shortest round-trip numbers).
  /// With `indent > 0`, pretty-prints using that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parses a complete JSON document; trailing non-whitespace, and
  /// nesting deeper than kMaxJsonDepth, are errors.
  [[nodiscard]] static Json parse(const std::string& text);

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

}  // namespace elpc::util
