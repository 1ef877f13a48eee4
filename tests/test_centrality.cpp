#include "centrality/centrality.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::barbell_graph;
using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;

TEST(Betweenness, StarHubTakesAllPairs) {
  const Graph g = star_graph(8);  // 7 leaves
  const auto scores = betweenness_centrality(g);
  // Hub mediates all C(7,2) = 21 leaf pairs.
  EXPECT_NEAR(scores[0], 21.0, 1e-9);
  for (VertexId v = 1; v < 8; ++v) EXPECT_NEAR(scores[v], 0.0, 1e-9);
}

TEST(Betweenness, PathInteriorValues) {
  // Path 0-1-2-3-4: vertex i mediates i * (n-1-i) pairs.
  const Graph g = path_graph(5);
  const auto scores = betweenness_centrality(g);
  EXPECT_NEAR(scores[0], 0.0, 1e-9);
  EXPECT_NEAR(scores[1], 3.0, 1e-9);
  EXPECT_NEAR(scores[2], 4.0, 1e-9);
  EXPECT_NEAR(scores[3], 3.0, 1e-9);
  EXPECT_NEAR(scores[4], 0.0, 1e-9);
}

TEST(Betweenness, CompleteGraphIsZero) {
  const auto scores = betweenness_centrality(complete_graph(6));
  for (const double s : scores) EXPECT_NEAR(s, 0.0, 1e-9);
}

TEST(Betweenness, CycleSplitsShortestPaths) {
  // On C_5, each pair at distance 2 has a unique shortest path through one
  // intermediate; by symmetry every vertex mediates the same count.
  const auto scores = betweenness_centrality(cycle_graph(5));
  for (const double s : scores) EXPECT_NEAR(s, scores[0], 1e-9);
  EXPECT_GT(scores[0], 0.0);
}

TEST(Betweenness, BridgeVertexDominatesBarbell) {
  const auto scores = betweenness_centrality(barbell_graph());
  // Vertices 2 and 3 carry all cross-triangle pairs.
  const double bridge = scores[2];
  EXPECT_NEAR(scores[3], bridge, 1e-9);
  for (const VertexId v : {0u, 1u, 4u, 5u}) EXPECT_LT(scores[v], bridge);
}

TEST(Betweenness, EvenSplitAcrossParallelPaths) {
  // C_4: pair (0,2) has two shortest paths via 1 and 3; each gets 1/2.
  const auto scores = betweenness_centrality(cycle_graph(4));
  for (const double s : scores) EXPECT_NEAR(s, 0.5, 1e-9);
}

TEST(Betweenness, SampledEstimatesExact) {
  const Graph g = largest_component(barabasi_albert(300, 3, 5)).graph;
  const auto exact = betweenness_centrality(g);
  CentralityOptions options;
  options.num_sources = 150;
  options.seed = 5;
  const auto sampled = betweenness_centrality(g, options);
  // Compare the rank of the top exact vertex.
  const auto top =
      std::max_element(exact.begin(), exact.end()) - exact.begin();
  const double ratio = sampled[top] / exact[top];
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

TEST(Betweenness, NormalizationStarHubIsOne) {
  const Graph g = star_graph(8);
  const auto normalized =
      normalize_betweenness(betweenness_centrality(g), g.num_vertices());
  EXPECT_NEAR(normalized[0], 1.0, 1e-9);
}

TEST(Betweenness, NormalizeTinyThrows) {
  EXPECT_THROW(normalize_betweenness({0.0}, 2), std::invalid_argument);
}

TEST(Betweenness, TinyGraphAllZero) {
  const auto scores = betweenness_centrality(path_graph(2));
  for (const double s : scores) EXPECT_DOUBLE_EQ(s, 0.0);
}

}  // namespace
}  // namespace sntrust
