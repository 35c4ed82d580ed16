#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace elpc::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, ScientificNotation) {
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5E-2").as_number(), -0.025);
}

TEST(JsonParse, Arrays) {
  const Json v = Json::parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[2].as_int(), 3);
}

TEST(JsonParse, NestedObjects) {
  const Json v = Json::parse(R"({"a": {"b": [true, null]}, "c": "x"})");
  EXPECT_TRUE(v.at("a").at("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.at("a").at("b").as_array()[1].is_null());
  EXPECT_EQ(v.at("c").as_string(), "x");
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
}

TEST(JsonParse, StringEscapes) {
  const Json v = Json::parse(R"("a\"b\\c\nd\te")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\te");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  // U+00E9 (e-acute) encodes as two UTF-8 bytes.
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(JsonParse, WhitespaceTolerated) {
  const Json v = Json::parse("  {\n\t\"k\" :  1 }  ");
  EXPECT_EQ(v.at("k").as_int(), 1);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW((void)Json::parse("tru"), JsonError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
}

/// Nesting is capped at kMaxJsonDepth: depth 64 parses, depth 65 is
/// refused with JsonError (arrays and objects count alike), so a peer
/// cannot drive the recursive parser through the stack.
TEST(JsonParse, NestingDeeperThanTheCapIsRejected) {
  EXPECT_EQ(kMaxJsonDepth, 64);
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += "{\"k\":";
    }
    text += "1";
    return text + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_NO_THROW((void)Json::parse(arrays(kMaxJsonDepth)));
  EXPECT_NO_THROW((void)Json::parse(objects(kMaxJsonDepth)));
  EXPECT_THROW((void)Json::parse(arrays(kMaxJsonDepth + 1)), JsonError);
  EXPECT_THROW((void)Json::parse(objects(kMaxJsonDepth + 1)), JsonError);
  // Unterminated and far deeper: still a clean parse error.
  EXPECT_THROW((void)Json::parse(std::string(100000, '[')), JsonError);
}

TEST(JsonAccess, TypeMismatchThrows) {
  const Json v = Json::parse("[1]");
  EXPECT_THROW((void)v.as_object(), JsonError);
  EXPECT_THROW((void)v.as_string(), JsonError);
  EXPECT_THROW((void)v.at("k"), JsonError);
}

TEST(JsonAccess, MissingKeyThrows) {
  const Json v = Json::parse("{\"a\":1}");
  EXPECT_THROW((void)v.at("b"), JsonError);
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("b"));
}

TEST(JsonAccess, NonIntegralNumberRejectedByAsInt) {
  EXPECT_THROW((void)Json::parse("1.5").as_int(), JsonError);
}

/// as_int() range-checks before casting: past +-2^63 the cast would be
/// undefined, so those throw instead; +-2^53 (exact doubles) parse.
TEST(JsonAccess, OutOfRangeIntegerRejectedByAsInt) {
  EXPECT_THROW((void)Json::parse("1e300").as_int(), JsonError);
  EXPECT_THROW((void)Json::parse("-1e300").as_int(), JsonError);
  EXPECT_THROW((void)Json::parse("9.3e18").as_int(), JsonError);
  EXPECT_EQ(Json::parse("9007199254740992").as_int(),
            std::int64_t{1} << 53);
  EXPECT_EQ(Json::parse("-9007199254740992").as_int(),
            -(std::int64_t{1} << 53));
}

TEST(JsonBuild, SetAndPushBack) {
  Json obj;
  obj.set("x", 1).set("y", "two");
  obj.set("list", Json(JsonArray{}));
  Json list;
  list.push_back(1).push_back(2);
  obj.set("list", std::move(list));
  EXPECT_EQ(obj.at("x").as_int(), 1);
  EXPECT_EQ(obj.at("list").as_array().size(), 2u);
}

TEST(JsonDump, CanonicalCompactForm) {
  Json obj;
  obj.set("b", 2).set("a", 1);
  // std::map sorts keys.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
}

TEST(JsonDump, PrettyPrintIndents) {
  Json obj;
  obj.set("a", Json(JsonArray{Json(1), Json(2)}));
  const std::string out = obj.dump(2);
  EXPECT_NE(out.find("{\n  \"a\": [\n    1,\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(JsonDump, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(JsonDump, StringsAreEscaped) {
  EXPECT_EQ(Json("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

/// The number bytes and bit patterns are pinned: "%lld" for integral
/// values below 1e15, "%.17g" otherwise, and correctly rounded parsing
/// that round-trips every finite double.
struct PinnedNumber {
  double value;
  const char* dumped;
};

const PinnedNumber kPinnedNumbers[] = {
    {0.1, "0.10000000000000001"},
    {-0.0, "0"},
    {1e15 - 1, "999999999999999"},
    {1e15, "1000000000000000"},
    {1e15 + 1, "1000000000000001"},
    {9007199254740992.0, "9007199254740992"},  // 2^53
    {DBL_MIN, "2.2250738585072014e-308"},
    {std::numeric_limits<double>::denorm_min(), "4.9406564584124654e-324"},
    {DBL_MAX, "1.7976931348623157e+308"},
};

TEST(JsonNumbers, DumpBytesArePinned) {
  for (const PinnedNumber& n : kPinnedNumbers) {
    EXPECT_EQ(Json(n.value).dump(), n.dumped) << n.dumped;
  }
}

TEST(JsonNumbers, ParseBitPatternsArePinned) {
  for (const PinnedNumber& n : kPinnedNumbers) {
    // -0.0 dumps as the integer 0, so it parses back as +0.0.
    const double expected = n.value == 0.0 ? 0.0 : n.value;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Json::parse(n.dumped).as_number()),
              std::bit_cast<std::uint64_t>(expected))
        << n.dumped;
  }
}

TEST(JsonNumbers, OutOfRangeMagnitudesSaturate) {
  const Json huge = Json::parse("1e400");
  EXPECT_EQ(huge.as_number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(huge.dump(), "null");
  EXPECT_EQ(Json::parse("-1e400").as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Json::parse("1e-400").as_number()),
            std::uint64_t{0});
}

TEST(JsonNumbers, RejectedTokensKeepTheirMessages) {
  for (const char* token : {"1e", "-", "1.2.3"}) {
    try {
      (void)Json::parse(token);
      ADD_FAILURE() << token << " parsed";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("JSON parse error at offset 0: invalid number '") +
                    token + "'");
    }
  }
}

TEST(JsonRoundTrip, ParseDumpParseIsIdentity) {
  const std::string doc =
      R"({"arr":[1,2.5,"s",null,true],"nested":{"k":[{"deep":-7}]}})";
  const Json v1 = Json::parse(doc);
  const Json v2 = Json::parse(v1.dump());
  EXPECT_EQ(v1, v2);
}

TEST(JsonRoundTrip, PreciseDoublesSurvive) {
  const double value = 0.1234567890123456;
  Json v;
  v.set("x", value);
  const Json back = Json::parse(v.dump());
  EXPECT_DOUBLE_EQ(back.at("x").as_number(), value);
}

/// Error texts and offsets, pinned across parser rewrites.
TEST(JsonParse, ErrorTextsAndOffsetsArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "offset 0: unexpected end of input"},
      {"[1,]", "offset 3: invalid number"},
      {"{\"a\":}", "offset 5: invalid number"},
      {"{\"a\" 1}", "offset 5: expected ':'"},
      {"{\"a\":1 \"b\":2}", "offset 7: expected ',' or '}' in object"},
      {"[1 2]", "offset 3: expected ',' or ']' in array"},
      {"{1:2}", "offset 1: expected '\"'"},
      {"tru", "offset 0: invalid literal"},
      {"nul", "offset 0: invalid literal"},
      {"1 2", "offset 2: trailing characters after document"},
      {"\"abc", "offset 4: unexpected end of input"},
      {"\"a\\x\"", "offset 4: invalid escape character"},
      {"\"\\u12G4\"", "offset 6: invalid \\u escape"},
      {"\"\\u12", "offset 5: unexpected end of input"},
  };
  for (const auto& [text, what] : cases) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const JsonError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("JSON parse error at ") + what)
          << text;
    }
  }
  try {
    (void)Json::parse(std::string(kMaxJsonDepth + 1, '['));
    ADD_FAILURE() << "depth 65 parsed";
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()),
              "JSON parse error at offset 64: nesting deeper than 64");
  }
}

/// Whitespace is the set isspace accepts in the C locale: JSON's four
/// plus \v and \f.
TEST(JsonParse, WhitespaceIsTheCLocaleSpaceSet) {
  EXPECT_EQ(Json::parse("\v\f [ \t1\r\n] \f").dump(), "[1]");
  EXPECT_THROW((void)Json::parse("\x85 1"), JsonError);
}

/// \u escapes decode one BMP code point each to UTF-8; the two halves
/// of a surrogate pair are not joined.
TEST(JsonParse, UnicodeEscapesDecodeOneBmpCodePointEach) {
  EXPECT_EQ(Json::parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xed\xa0\xbd\xed\xb8\x80");
}

/// The flat object's map-like members behave as std::map's did.
TEST(JsonObjectApi, MapLikeMembers) {
  JsonObject obj;
  EXPECT_TRUE(obj.empty());
  EXPECT_TRUE(obj.emplace("b", 1));
  EXPECT_FALSE(obj.emplace("b", 2));  // emplace never overwrites
  EXPECT_EQ(obj.find("b")->second.as_int(), 1);
  EXPECT_EQ(obj.insert_or_assign("b", 3).as_int(), 3);
  (void)obj.insert_or_assign("a", "x");  // sorts before "b"
  EXPECT_TRUE(obj["c"].is_null());       // operator[] inserts null
  obj["a"] = Json(true);                 // and assigns in place
  EXPECT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj.count("a"), 1u);
  EXPECT_EQ(obj.count("zz"), 0u);
  EXPECT_EQ(Json(obj).dump(), R"({"a":true,"b":3,"c":null})");

  EXPECT_EQ(obj.erase("b"), 1u);
  EXPECT_EQ(obj.erase("b"), 0u);
  EXPECT_EQ(obj.find("b"), obj.end());
  std::string keys;
  for (const auto& [key, value] : obj) {
    keys += key;
  }
  EXPECT_EQ(keys, "ac");

  JsonObject same;
  (void)same.insert_or_assign("c", nullptr);
  (void)same.insert_or_assign("a", true);
  EXPECT_TRUE(obj == same);
  (void)same.insert_or_assign("a", false);
  EXPECT_FALSE(obj == same);

  // Built from members in any order: sorted, and the last duplicate wins.
  const JsonObject built({{"z", 1}, {"a", 2}, {"z", 3}, {"m", 4}, {"a", 5}});
  EXPECT_EQ(Json(built).dump(), R"({"a":5,"m":4,"z":3})");

  Json doc;
  doc.set("k", 1).set("j", 2);
  EXPECT_EQ(doc.erase("k"), 1u);
  EXPECT_EQ(doc.erase("k"), 0u);
  EXPECT_EQ(Json(JsonArray{}).erase("k"), 0u);
  EXPECT_EQ(doc.dump(), R"({"j":2})");
}

TEST(JsonObjectApi, DuplicateKeysKeepTheLastValue) {
  EXPECT_EQ(Json::parse(R"({"a":1,"a":2})").dump(), R"({"a":2})");
  EXPECT_EQ(Json::parse(R"({"b":1,"a":0,"b":3,"a":4})").dump(),
            R"({"a":4,"b":3})");
  EXPECT_EQ(Json::parse(R"({"a":{"x":1},"a":[]})").dump(), R"({"a":[]})");
}

/// Keys order as unsigned bytes, like std::string's operator<.
TEST(JsonObjectApi, KeysOrderAsUnsignedBytes) {
  Json obj;
  obj.set("\xc3\xa9", 1).set("z", 2).set("\x01", 3).set("", 4).set("Z", 5);
  EXPECT_EQ(obj.dump(),
            "{\"\":4,\"\\u0001\":3,\"Z\":5,\"z\":2,\"\xc3\xa9\":1}");
}

/// Seeded random documents, parsed and dumped, against a reference model
/// that orders members with std::map (assignment: the last duplicate
/// wins) and escapes strings itself.  Documents mix unsorted and
/// duplicate keys, non-ASCII keys (ordered as unsigned bytes), every
/// escape form, all scalars, and nesting down to kMaxJsonDepth.
class JsonReferenceModel {
 public:
  explicit JsonReferenceModel(std::uint64_t seed) : rng_(seed) {}

  /// One document: its text and the canonical dump expected from it.
  std::pair<std::string, std::string> document(int chain_depth) {
    std::string text;
    std::string expected;
    if (chain_depth > 0) {
      chain(chain_depth, 0, text, expected);
    } else {
      value(0, text, expected);
    }
    ws(text);
    return {text, expected};
  }

 private:
  /// A decoded string and the ways it may be written inside quotes.
  struct Spelling {
    const char* decoded;
    std::vector<const char*> written;
  };

  static const std::vector<Spelling>& words() {
    static const std::vector<Spelling> kWords = {
        {"a", {"a", "\\u0061"}},
        {"b", {"b"}},
        {"B", {"B", "\\u0042"}},
        {"ab", {"ab", "a\\u0062"}},
        {"", {""}},
        {"z", {"z"}},
        {"\xc3\xa9", {"\xc3\xa9", "\\u00e9", "\\u00E9"}},
        {"\xe2\x82\xac", {"\xe2\x82\xac", "\\u20ac"}},
        {"\x7f", {"\x7f", "\\u007f"}},
        {"q\"t", {"q\\\"t", "q\\u0022t"}},
        {"s/l", {"s/l", "s\\/l"}},
        {"b\\s", {"b\\\\s"}},
        {"n\nl\tt\rr\bb\ff", {"n\\nl\\tt\\rr\\bb\\ff"}},
        {"\x01\x1f", {"\\u0001\\u001f", "\\u0001\\u001F"}},
        {"a-key-longer-than-the-sso-buffer",
         {"a-key-longer-than-the-sso-buffer"}},
    };
    return kWords;
  }

  /// A number's spellings and its canonical dump.
  struct Number {
    std::vector<const char*> written;
    const char* canonical;
  };

  static const std::vector<Number>& numbers() {
    static const std::vector<Number> kNumbers = {
        {{"3", "3.0", "30e-1", "0.3E1"}, "3"},
        {{"-0.5", "-5e-1", "-0.50"}, "-0.5"},
        {{"0.25", "2.5e-1"}, "0.25"},
        {{"1e20", "1E+20", "100000000000000000000"}, "1e+20"},
        {{"-0", "0", "0e5"}, "0"},
        {{"123456789"}, "123456789"},
    };
    return kNumbers;
  }

  std::size_t pick(std::size_t n) { return rng_() % n; }

  /// Whitespace JSON allows, sometimes none.
  void ws(std::string& text) {
    static const char* const kSpaces[] = {"", "", " ", "\n  ", "\t", "\r\n"};
    text += kSpaces[pick(std::size(kSpaces))];
  }

  /// The reference escaper (what the canonical dump must print).
  static std::string escaped(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
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
            static constexpr char kHex[] = "0123456789abcdef";
            out += "\\u00";
            out += kHex[static_cast<unsigned char>(c) >> 4];
            out += kHex[c & 0xF];
          } else {
            out += c;
          }
      }
    }
    return out + "\"";
  }

  /// Appends a string of one or two words; returns its decoded bytes.
  std::string string(std::string& text) {
    std::string decoded;
    text += '"';
    for (std::size_t n = 1 + pick(2); n > 0; --n) {
      const Spelling& word = words()[pick(words().size())];
      text += word.written[pick(word.written.size())];
      decoded += word.decoded;
    }
    text += '"';
    return decoded;
  }

  /// A scalar, or an empty container when `may_nest` (the cap allows
  /// one more level).
  void scalar(std::string& text, std::string& expected, bool may_nest) {
    switch (pick(may_nest ? 4 : 3)) {
      case 0: {
        const Number& n = numbers()[pick(numbers().size())];
        text += n.written[pick(n.written.size())];
        expected += n.canonical;
        return;
      }
      case 1:
        expected += escaped(string(text));
        return;
      case 2: {
        static const char* const kLiterals[] = {"true", "false", "null"};
        const char* literal = kLiterals[pick(3)];
        text += literal;
        expected += literal;
        return;
      }
      default: {
        const bool object = pick(2) == 0;
        text += object ? "{ }" : "[\n]";
        expected += object ? "{}" : "[]";
        return;
      }
    }
  }

  /// A value inside `nesting` containers; bushy only near the top.
  void value(int nesting, std::string& text, std::string& expected) {
    ws(text);
    const std::size_t kind = nesting >= 5 ? 0 : pick(5);
    if (kind < 2) {
      scalar(text, expected, nesting < kMaxJsonDepth);
    } else if (kind == 2) {
      array(nesting, text, expected, nullptr);
    } else {
      object(nesting, text, expected, nullptr);
    }
  }

  using Deep = std::function<void(std::string&, std::string&)>;

  /// An array inside `nesting` containers, of up to 4 elements plus
  /// `deep` (when set) at a random position.
  void array(int nesting, std::string& text, std::string& expected,
             const Deep& deep) {
    const std::size_t count = pick(5) + (deep ? 1 : 0);
    const std::size_t deep_at = deep ? pick(count) : count;
    text += '[';
    expected += '[';
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) {
        text += ',';
        expected += ',';
      }
      if (i == deep_at) {
        ws(text);
        deep(text, expected);
      } else {
        value(nesting + 1, text, expected);
      }
      ws(text);
    }
    text += ']';
    expected += ']';
  }

  /// An object inside `nesting` containers, of up to 6 members in random
  /// key order with duplicates, plus `deep` (when set) as one member's
  /// value.
  void object(int nesting, std::string& text, std::string& expected,
              const Deep& deep) {
    const std::size_t count = pick(7) + (deep ? 1 : 0);
    const std::size_t deep_at = deep ? pick(count) : count;
    std::map<std::string, std::string> members;  // decoded key -> dump
    text += '{';
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) {
        text += ',';
      }
      ws(text);
      const std::string key = string(text);
      ws(text);
      text += ':';
      std::string member;
      if (i == deep_at) {
        ws(text);
        deep(text, member);
      } else {
        value(nesting + 1, text, member);
      }
      ws(text);
      members[key] = member;  // a later duplicate overwrites
    }
    text += '}';
    expected += '{';
    for (const auto& [key, member] : members) {
      if (expected.back() != '{') {
        expected += ',';
      }
      expected += escaped(key) + ":" + member;
    }
    expected += '}';
  }

  /// `depth` containers nested one in the next, starting inside
  /// `nesting`, each with random siblings of the deeper one.
  void chain(int depth, int nesting, std::string& text,
             std::string& expected) {
    if (depth == 0) {
      scalar(text, expected, nesting < kMaxJsonDepth);
      return;
    }
    const Deep inner = [this, depth, nesting](std::string& t,
                                              std::string& e) {
      chain(depth - 1, nesting + 1, t, e);
    };
    if (pick(2) == 0) {
      array(nesting, text, expected, inner);
    } else {
      object(nesting, text, expected, inner);
    }
  }

  std::mt19937_64 rng_;
};

TEST(JsonDifferential, RandomDocumentsDumpAsTheMapOrderedModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    JsonReferenceModel model(seed);
    for (int i = 0; i < 400; ++i) {
      // Every tenth document nests to a random depth up to the cap.
      const int chain = i % 10 == 0 ? 1 + (i / 10) % kMaxJsonDepth : 0;
      const auto [text, expected] = model.document(chain);
      const Json parsed = Json::parse(text);
      ASSERT_EQ(parsed.dump(), expected) << "seed " << seed << " doc " << i
                                         << ": " << text;
      ASSERT_EQ(Json::parse(expected), parsed);
      ASSERT_EQ(Json::parse(parsed.dump(2)), parsed);
    }
  }
  JsonReferenceModel model(5);
  const auto [text, expected] = model.document(kMaxJsonDepth);
  EXPECT_EQ(Json::parse(text).dump(), expected);
}

}  // namespace
}  // namespace elpc::util
