#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>

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

}  // namespace
}  // namespace elpc::util
