#include "report/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "report/series.hpp"

namespace sntrust {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t{{"name", "value"}};
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // Every line before "value" column alignment holds: "alpha  1".
  EXPECT_NE(text.find("alpha  1"), std::string::npos);
}

TEST(Table, RowCountTracked) {
  Table t{{"x"}};
  EXPECT_EQ(t.num_rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, ColumnMismatchThrows) {
  Table t{{"a", "b"}};
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
}

TEST(SeriesSet, MergesOnX) {
  SeriesSet figure{"t"};
  figure.add_series("a", {0, 1, 2}, {1.0, 0.5, 0.25});
  figure.add_series("b", {1, 2, 3}, {0.9, 0.8, 0.7});
  std::ostringstream out;
  figure.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("t"), std::string::npos);
  EXPECT_NE(text.find("0.25"), std::string::npos);
  EXPECT_NE(text.find("0.7"), std::string::npos);
  EXPECT_EQ(figure.num_series(), 2u);
}

TEST(SeriesSet, MismatchedXYThrows) {
  SeriesSet figure{"t"};
  EXPECT_THROW(figure.add_series("bad", {0, 1}, {1.0}),
               std::invalid_argument);
}

TEST(Table, SingleColumnRendersCleanly) {
  Table t{{"only"}};
  t.add_row({"value"});
  std::ostringstream out;
  t.print(out);
  EXPECT_EQ(out.str(), "only\n-----\nvalue\n");
}

TEST(Table, EmptyCellsAllowed) {
  Table t{{"a", "b"}};
  t.add_row({"", "x"});
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("x"), std::string::npos);
}

TEST(SeriesSet, MissingPointsAreBlank) {
  SeriesSet figure{"x"};
  figure.add_series("only_at_zero", {0}, {5.0});
  figure.add_series("only_at_one", {1}, {6.0});
  std::ostringstream out;
  figure.print(out);
  // Both x rows appear.
  EXPECT_NE(out.str().find("5"), std::string::npos);
  EXPECT_NE(out.str().find("6"), std::string::npos);
}

}  // namespace
}  // namespace sntrust
