#include "util/format.hpp"

#include <gtest/gtest.h>

namespace sntrust {
namespace {

TEST(Format, WithThousandsSmall) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(7), "7");
  EXPECT_EQ(with_thousands(999), "999");
}

TEST(Format, WithThousandsGroups) {
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(12345), "12,345");
  EXPECT_EQ(with_thousands(123456), "123,456");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(1000000000ULL), "1,000,000,000");
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 3), "2.000");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

TEST(Format, CompactTrimsNoise) {
  EXPECT_EQ(compact(0.5), "0.5");
  EXPECT_EQ(compact(2.0), "2");
  EXPECT_EQ(compact(123456789.0, 3), "1.23e+08");
}

}  // namespace
}  // namespace sntrust
