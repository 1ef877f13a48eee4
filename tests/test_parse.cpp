#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace sntrust {
namespace {

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
