#include "graph/traversal.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::cycle_graph;
using testing::disconnected_graph;
using testing::path_graph;
using testing::star_graph;

TEST(Bfs, PathDistances) {
  const Graph g = path_graph(5);
  const BfsResult r = bfs(g, 0);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(r.distances[v], v);
  EXPECT_EQ(r.eccentricity, 4u);
  EXPECT_EQ(r.reached, 5u);
}

TEST(Bfs, LevelSizesSumToReached) {
  const Graph g = cycle_graph(10);
  const BfsResult r = bfs(g, 3);
  const auto total = std::accumulate(r.level_sizes.begin(),
                                     r.level_sizes.end(), std::uint64_t{0});
  EXPECT_EQ(total, r.reached);
  EXPECT_EQ(r.level_sizes[0], 1u);
}

TEST(Bfs, CycleLevels) {
  const Graph g = cycle_graph(8);
  const BfsResult r = bfs(g, 0);
  // Levels: 1, 2, 2, 2, 1.
  ASSERT_EQ(r.level_sizes.size(), 5u);
  EXPECT_EQ(r.level_sizes[0], 1u);
  EXPECT_EQ(r.level_sizes[1], 2u);
  EXPECT_EQ(r.level_sizes[4], 1u);
}

TEST(Bfs, StarHasTwoLevels) {
  const Graph g = star_graph(9);
  const BfsResult center = bfs(g, 0);
  EXPECT_EQ(center.eccentricity, 1u);
  const BfsResult leaf = bfs(g, 3);
  EXPECT_EQ(leaf.eccentricity, 2u);
  EXPECT_EQ(leaf.level_sizes[1], 1u);   // the hub
  EXPECT_EQ(leaf.level_sizes[2], 7u);   // remaining leaves
}

TEST(Bfs, UnreachableMarked) {
  const Graph g = disconnected_graph();
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.reached, 3u);
  EXPECT_EQ(r.distances[3], kUnreachable);
  EXPECT_EQ(r.distances[4], kUnreachable);
  EXPECT_EQ(r.distances[5], kUnreachable);
}

TEST(Bfs, BadSourceThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW(bfs(g, 3), std::out_of_range);
}

TEST(Bfs, SingletonGraph) {
  GraphBuilder b{1};
  const Graph g = b.build();
  const BfsResult r = bfs(g, 0);
  EXPECT_EQ(r.reached, 1u);
  EXPECT_EQ(r.eccentricity, 0u);
  ASSERT_EQ(r.level_sizes.size(), 1u);
}

TEST(Bfs, DistancesSatisfyTriangleOnEdges) {
  // Property: along any edge, BFS distances differ by at most 1.
  const Graph g = testing::two_cliques(5);
  const BfsResult r = bfs(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId w : g.neighbors(v))
      EXPECT_LE(r.distances[v] > r.distances[w]
                    ? r.distances[v] - r.distances[w]
                    : r.distances[w] - r.distances[v],
                1u);
}

}  // namespace
}  // namespace sntrust
