#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::cycle_graph;
using testing::petersen_graph;

TEST(GraphIo, ReadsSimpleEdgeList) {
  std::istringstream in{"0 1\n1 2\n2 0\n"};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphIo, SkipsCommentsAndBlankLines) {
  std::istringstream in{"# header\n\n  \t\n10 20\n# trailing\n20 30\n"};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, RemapsSparseIds) {
  std::istringstream in{"1000000 5\n5 42\n"};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);  // ids interned densely
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, DropsSelfLoopsAndDuplicates) {
  std::istringstream in{"1 1\n1 2\n2 1\n"};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphIo, MalformedLineThrows) {
  std::istringstream in{"1 2\nhello\n"};
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, MissingSecondFieldThrows) {
  std::istringstream in{"1\n"};
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(GraphIo, EmptyInputIsEmptyGraph) {
  std::istringstream in{""};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 0u);
  std::istringstream comments{"# just\n# comments\n"};
  EXPECT_EQ(read_edge_list(comments).num_vertices(), 0u);
}

TEST(GraphIo, TrailingFieldsIgnored) {
  // SNAP files sometimes carry weights/timestamps; extra columns are noise.
  std::istringstream in{"0 1 0.5 extra\n1 2 7\n"};
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, NegativeIdRejectedWithLineNumber) {
  std::istringstream in{"0 1\n2 -3\n"};
  try {
    read_edge_list(in);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(GraphIo, OverflowingIdRejectedWithLineNumber) {
  std::istringstream in{"18446744073709551616 1\n"};  // 2^64
  try {
    read_edge_list(in);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos)
        << error.what();
  }
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
  EXPECT_THROW(read_graph_auto("/nonexistent/path/graph.snap"),
               std::runtime_error);
}

TEST(GraphIo, TextRoundTrip) {
  const Graph g = petersen_graph();
  std::stringstream buffer;
  write_edge_list(g, buffer);
  const Graph back = read_edge_list(buffer);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_edges(), g.num_edges());
}

TEST(GraphIo, TextFileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sntrust_io_text.txt").string();
  const Graph g = cycle_graph(12);
  write_edge_list_file(g, path);
  const Graph back = read_edge_list_file(path);
  EXPECT_EQ(back.num_edges(), 12u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
