#include "util/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sntrust::json {
namespace {

// --------------------------------------------------------------- parsing ---

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_TRUE(Value::parse("true").as_bool());
  EXPECT_FALSE(Value::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Value::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Value::parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(Value::parse("42").as_int(), 42);
  EXPECT_EQ(Value::parse("-9007199254740993").as_int(), -9007199254740993ll);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(Value::parse("42").is_integer());
  EXPECT_TRUE(Value::integer(-7).is_integer());
  for (const char* text : {"3.25", "-1e3", "4.0", "1e300", "\"7\"", "null",
                           "99999999999999999999"})
    EXPECT_FALSE(Value::parse(text).is_integer()) << text;
}

TEST(Json, AsIntRejectsNumbersOutsideInt64) {
  // Truncation keeps its meaning inside the range...
  EXPECT_EQ(Value::parse("2.9").as_int(), 2);
  EXPECT_EQ(Value::parse("-2.9").as_int(), -2);
  EXPECT_EQ(Value::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Value::parse("1e18").as_int(), 1000000000000000000ll);
  // ...and a number past it is an error, not a wrapped or undefined value.
  for (const char* text : {"1e300", "-1e19", "9223372036854775808"})
    EXPECT_THROW(Value::parse(text).as_int(), std::runtime_error) << text;
}

TEST(Json, ParsesNestedStructures) {
  const Value doc = Value::parse(
      R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}, "f": [[]]})");
  ASSERT_TRUE(doc.is_object());
  const Value* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_int(), 2);
  EXPECT_TRUE(a->as_array()[2].find("b")->is_null());
  EXPECT_EQ(doc.find("c")->find("d")->as_string(), "e");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value doc = Value::parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, DecodesEscapesAndSurrogatePairs) {
  const Value doc = Value::parse(R"("a\"b\\c\/d\n\t\r\b\f")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(Value::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Value::parse(R"("\u00e9")").as_string(), "\xC3\xA9");  // é
  EXPECT_EQ(Value::parse(R"("\u2603")").as_string(), "\xE2\x98\x83");  // ☃
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(Value::parse(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(Json, StrictParserRejectsViolations) {
  const char* bad[] = {
      "",                        // empty document
      "tru",                     // truncated literal
      "truex",                   // trailing junk inside literal
      "1 2",                     // trailing characters
      "[1,]",                    // trailing comma
      "{\"a\":1,}",              // trailing comma in object
      "{a: 1}",                  // unquoted key
      "{\"a\" 1}",               // missing colon
      "[1 2]",                   // missing comma
      "'single'",                // wrong quotes
      "\"unterminated",          // unterminated string
      "\"bad \\x escape\"",      // invalid escape
      "\"\\u12\"",               // truncated \u escape
      "\"\\uD83D\"",             // lone high surrogate
      "\"\\uDE00\"",             // lone low surrogate
      "\"ctrl \n char\"",        // raw control character in string
      "01",                      // leading zero
      ".5",                      // missing integer part
      "1.",                      // missing fraction digits
      "1e",                      // missing exponent digits
      "+1",                      // leading plus
      "NaN",                     // not a JSON literal
      "Infinity",                // not a JSON literal
      "{}}",                     // unbalanced
  };
  for (const char* text : bad)
    EXPECT_THROW(Value::parse(text), std::runtime_error) << text;
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_THROW(Value::parse(deep), std::runtime_error);
}

// --------------------------------------------------------------- writing ---

TEST(Json, WriteEscapesSpecialCharacters) {
  std::ostringstream out;
  write_json_string(out, "quote\" back\\slash \n\t\r\b\f \x01\x1f");
  EXPECT_EQ(out.str(),
            "\"quote\\\" back\\\\slash \\n\\t\\r\\b\\f \\u0001\\u001f\"");
}

TEST(Json, WritePassesUtf8Through) {
  EXPECT_EQ(escape("naïve ☃"), "\"naïve ☃\"");
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Value::integer(42).dump(), "42");
  EXPECT_EQ(Value::integer(-7).dump(), "-7");
  EXPECT_EQ(Value::number(0.5).dump(), "0.5");
  // Non-finite doubles have no JSON encoding; strict null instead.
  EXPECT_EQ(Value::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, DumpRoundTripsThroughParse) {
  Object inner;
  inner.emplace_back("pi", Value::number(3.141592653589793));
  inner.emplace_back("n", Value::integer(1234567890123456789ll));
  Object root;
  root.emplace_back("name", Value::string("trace \"x\"\n"));
  root.emplace_back("items", Value::array({Value::boolean(true),
                                           Value::null(),
                                           Value::object(std::move(inner))}));
  const Value original = Value::object(std::move(root));
  const Value reparsed = Value::parse(original.dump());
  EXPECT_EQ(reparsed.dump(), original.dump());
  EXPECT_EQ(reparsed.find("name")->as_string(), "trace \"x\"\n");
  EXPECT_EQ(
      reparsed.find("items")->as_array()[2].find("n")->as_int(),
      1234567890123456789ll);
}

/// The satellite contract: arbitrary span names — control characters,
/// quotes, backslashes, non-ASCII — survive write_json_string + parse.
TEST(Json, StringEscapingRoundTripsHostileNames) {
  const std::string hostile[] = {
      "plain",
      "quotes \" and \\ backslashes \\\\",
      std::string("embedded\0null", 13),
      "controls \x01\x02\x1f\n\r\t\b\f",
      "non-ascii: naïve Grüße 北京 ☃ 😀",
      "/slashes\\and\"mixed\n",
  };
  for (const std::string& name : hostile) {
    std::ostringstream out;
    write_json_string(out, name);
    const Value parsed = Value::parse(out.str());
    EXPECT_EQ(parsed.as_string(), name);
  }
}

}  // namespace
}  // namespace sntrust::json
