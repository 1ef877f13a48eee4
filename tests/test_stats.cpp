#include "graph/stats.hpp"

#include <gtest/gtest.h>

#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;
using testing::two_cliques;

TEST(DegreeStats, Path) {
  const DegreeStats s = degree_stats(path_graph(5));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0 * 4 / 5);
  EXPECT_EQ(s.histogram[1], 2u);
  EXPECT_EQ(s.histogram[2], 3u);
}

TEST(DegreeStats, Star) {
  const DegreeStats s = degree_stats(star_graph(10));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 9u);
  EXPECT_DOUBLE_EQ(s.median, 1.0);
}

TEST(DegreeStats, HistogramSumsToN) {
  const DegreeStats s = degree_stats(two_cliques(4));
  std::uint64_t total = 0;
  for (const auto c : s.histogram) total += c;
  EXPECT_EQ(total, 8u);
}

TEST(DegreeStats, EmptyGraphThrows) {
  EXPECT_THROW(degree_stats(Graph{}), std::invalid_argument);
}

TEST(Clustering, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(average_local_clustering(complete_graph(6)), 1.0);
}

TEST(Clustering, TreeIsZero) {
  EXPECT_DOUBLE_EQ(average_local_clustering(star_graph(8)), 0.0);
  EXPECT_DOUBLE_EQ(average_local_clustering(path_graph(8)), 0.0);
}

TEST(Clustering, CycleIsZeroBeyondTriangle) {
  EXPECT_DOUBLE_EQ(average_local_clustering(cycle_graph(5)), 0.0);
  EXPECT_DOUBLE_EQ(average_local_clustering(cycle_graph(3)), 1.0);
}

TEST(Clustering, BarbellBetweenZeroAndOne) {
  const double c = average_local_clustering(testing::barbell_graph());
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);
}

TEST(Clustering, NoWedgesIsZero) {
  // Single edge: no vertex has two neighbours to close.
  EXPECT_DOUBLE_EQ(average_local_clustering(path_graph(2)), 0.0);
}

TEST(Diameter, PathExact) {
  EXPECT_EQ(double_sweep_diameter(path_graph(10)), 9u);
}

TEST(Diameter, CycleAtLeastHalf) {
  // Double sweep is a lower bound; on an even cycle it finds n/2.
  EXPECT_EQ(double_sweep_diameter(cycle_graph(10)), 5u);
}

TEST(Diameter, CompleteGraphIsOne) {
  EXPECT_EQ(double_sweep_diameter(complete_graph(5)), 1u);
}

TEST(Diameter, TwoCliques) {
  EXPECT_EQ(double_sweep_diameter(two_cliques(4)), 3u);
}

TEST(Diameter, EmptyGraphIsZero) {
  EXPECT_EQ(double_sweep_diameter(Graph{}), 0u);
}

TEST(Diameter, HintDoesNotBreakBound) {
  const Graph g = path_graph(7);
  for (VertexId hint = 0; hint < 7; ++hint)
    EXPECT_EQ(double_sweep_diameter(g, hint), 6u);
}

}  // namespace
}  // namespace sntrust
