#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

namespace sntrust {
namespace {

TEST(GraphBuilder, BuildsSimpleGraph) {
  GraphBuilder b{4};
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b{3};
  b.add_edge(1, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(GraphBuilder, CollapsesDuplicates) {
  GraphBuilder b{3};
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, OutOfRangeEndpointThrows) {
  GraphBuilder b{2};
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW(b.add_edge(2, 0), std::out_of_range);
}

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder b{5};
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(GraphBuilder, ZeroVertexBuild) {
  GraphBuilder b{0};
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b{3};
  b.add_edge(0, 1);
  const Graph first = b.build();
  b.add_edge(1, 2);
  const Graph second = b.build();
  EXPECT_EQ(first.num_edges(), 1u);
  EXPECT_EQ(second.num_edges(), 2u);
}

TEST(GraphBuilder, PendingEdgesCountsRecords) {
  GraphBuilder b{3};
  EXPECT_EQ(b.pending_edges(), 0u);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // duplicate still counted as pending
  b.add_edge(2, 2);  // self loop ignored entirely
  EXPECT_EQ(b.pending_edges(), 2u);
}

TEST(GraphBuilder, LargeRandomRoundTrip) {
  // Property: builder output passes Graph's own CSR validation (implicit in
  // construction) and reports the exact deduplicated edge count.
  GraphBuilder b{100};
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    return x;
  };
  std::set<std::pair<VertexId, VertexId>> expected;
  for (int i = 0; i < 5000; ++i) {
    auto u = static_cast<VertexId>(next() % 100);
    auto v = static_cast<VertexId>(next() % 100);
    b.add_edge(u, v);
    if (u != v) expected.insert({std::min(u, v), std::max(u, v)});
  }
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), expected.size());
  for (const auto& [u, v] : expected) EXPECT_TRUE(g.has_edge(u, v));
}

}  // namespace
}  // namespace sntrust
