#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>

namespace sntrust {
namespace {

constexpr const char* kVar = "SNTRUST_TEST_ENV_VAR";

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
};

TEST_F(EnvTest, BoolFallsBackWhenUnset) {
  unsetenv(kVar);
  EXPECT_TRUE(env_bool(kVar, true));
  EXPECT_FALSE(env_bool(kVar, false));
}

TEST_F(EnvTest, BoolParsesTruthyValues) {
  for (const char* value : {"1", "true", "TRUE", "yes", "Yes", "on", "ON"}) {
    setenv(kVar, value, 1);
    EXPECT_TRUE(env_bool(kVar, false)) << value;
  }
}

TEST_F(EnvTest, BoolParsesFalsyValues) {
  for (const char* value : {"0", "false", "FALSE", "no", "No", "off", "OFF"}) {
    setenv(kVar, value, 1);
    EXPECT_FALSE(env_bool(kVar, true)) << value;
  }
}

TEST_F(EnvTest, BoolFallsBackOnGarbage) {
  setenv(kVar, "maybe", 1);
  EXPECT_TRUE(env_bool(kVar, true));
  EXPECT_FALSE(env_bool(kVar, false));
}

TEST_F(EnvTest, BoolFallsBackOnEmpty) {
  setenv(kVar, "", 1);
  EXPECT_TRUE(env_bool(kVar, true));
}

TEST_F(EnvTest, StringFallsBackWhenUnsetOrEmpty) {
  unsetenv(kVar);
  EXPECT_EQ(env_string(kVar, "fallback"), "fallback");
  setenv(kVar, "", 1);
  EXPECT_EQ(env_string(kVar, "fallback"), "fallback");
}

TEST_F(EnvTest, StringReturnsRawValue) {
  setenv(kVar, "/tmp/trace.json", 1);
  EXPECT_EQ(env_string(kVar, ""), "/tmp/trace.json");
}

TEST_F(EnvTest, IntAndDoubleStillParse) {
  setenv(kVar, "42", 1);
  EXPECT_EQ(env_int(kVar, 0), 42);
  setenv(kVar, "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double(kVar, 0.0), 2.5);
}

TEST_F(EnvTest, IntRejectsTrailingCharacters) {
  setenv(kVar, "12abc", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "12.5", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, " -12 \t", 1);  // surrounding whitespace is fine
  EXPECT_EQ(env_int(kVar, 7), -12);
}

TEST_F(EnvTest, IntRejectsOverflow) {
  setenv(kVar, "9223372036854775808", 1);  // INT64_MAX + 1
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "-9223372036854775809", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "9223372036854775807", 1);
  EXPECT_EQ(env_int(kVar, 7), INT64_MAX);
}

TEST_F(EnvTest, DoubleRejectsTrailingCharacters) {
  setenv(kVar, "0.5x", 1);
  EXPECT_EQ(env_double(kVar, 3.0), 3.0);
  setenv(kVar, "1e", 1);  // strtod reads "1" and stops at the 'e'
  EXPECT_EQ(env_double(kVar, 3.0), 3.0);
  setenv(kVar, "0.25 \n", 1);
  EXPECT_EQ(env_double(kVar, 3.0), 0.25);
}

TEST_F(EnvTest, DoubleRejectsOverflow) {
  setenv(kVar, "1e999", 1);
  EXPECT_EQ(env_double(kVar, 3.0), 3.0);
  setenv(kVar, "-1e999", 1);
  EXPECT_EQ(env_double(kVar, 3.0), 3.0);
  setenv(kVar, "inf", 1);  // spelled out, infinity is a value
  EXPECT_EQ(env_double(kVar, 3.0), std::numeric_limits<double>::infinity());
}

TEST(ParseNumber, CountReadsWholeDecimalStringsInRange) {
  EXPECT_EQ(parse_count("0", 0, 10), 0u);
  EXPECT_EQ(parse_count("10", 1, 10), 10u);
  EXPECT_EQ(parse_count("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  for (const char* bad : {"", "5x", "2x", " 5", "5 ", "+5", "-1", "1e3",
                          "0x10", "99999999999999999999"})
    EXPECT_FALSE(parse_count(bad, 0, UINT64_MAX).has_value()) << bad;
  EXPECT_FALSE(parse_count("0", 1, 10).has_value());
  EXPECT_FALSE(parse_count("11", 1, 10).has_value());
}

TEST(ParseNumber, NonnegativeReadsWholeFiniteNumbers) {
  EXPECT_EQ(parse_nonnegative("0.05"), 0.05);
  EXPECT_EQ(parse_nonnegative("0"), 0.0);
  EXPECT_EQ(parse_nonnegative("2"), 2.0);
  EXPECT_EQ(parse_nonnegative("1e-3"), 1e-3);
  for (const char* bad : {"", "0.05x", "abc", " 1", "1 ", "+1", "-1", "-0",
                          "inf", "nan", "1e999"})
    EXPECT_FALSE(parse_nonnegative(bad).has_value()) << bad;
}

}  // namespace
}  // namespace sntrust
