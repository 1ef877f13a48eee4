#include "gen/generators.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/components.hpp"
#include "graph/stats.hpp"

namespace sntrust {
namespace {

TEST(ErdosRenyi, ZeroProbabilityIsEmpty) {
  const Graph g = erdos_renyi(100, 0.0, 1);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(ErdosRenyi, FullProbabilityIsComplete) {
  const Graph g = erdos_renyi(20, 1.0, 1);
  EXPECT_EQ(g.num_edges(), 190u);
}

TEST(ErdosRenyi, EdgeCountNearExpectation) {
  const VertexId n = 500;
  const double p = 0.05;
  const Graph g = erdos_renyi(n, p, 99);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.1 * expected);
}

TEST(ErdosRenyi, DeterministicInSeed) {
  EXPECT_EQ(erdos_renyi(100, 0.1, 7), erdos_renyi(100, 0.1, 7));
  EXPECT_NE(erdos_renyi(100, 0.1, 7), erdos_renyi(100, 0.1, 8));
}

TEST(ErdosRenyi, BadProbabilityThrows) {
  EXPECT_THROW(erdos_renyi(10, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(erdos_renyi(10, 1.1, 1), std::invalid_argument);
}

TEST(BarabasiAlbert, SizeAndMinDegree) {
  const Graph g = barabasi_albert(500, 3, 11);
  EXPECT_EQ(g.num_vertices(), 500u);
  // Every non-seed vertex attaches with 3 edges.
  for (VertexId v = 4; v < 500; ++v) EXPECT_GE(g.degree(v), 3u);
  // Edge count: seed clique C(4,2) + 3 per additional vertex.
  EXPECT_EQ(g.num_edges(), 6u + 3u * (500 - 4));
}

TEST(BarabasiAlbert, IsConnected) {
  EXPECT_TRUE(is_connected(barabasi_albert(1000, 2, 3)));
}

TEST(BarabasiAlbert, HasHeavyTail) {
  const Graph g = barabasi_albert(2000, 3, 13);
  const DegreeStats s = degree_stats(g);
  // Preferential attachment produces hubs far above the mean.
  EXPECT_GT(s.max, 5 * s.mean);
}

TEST(BarabasiAlbert, BadParamsThrow) {
  EXPECT_THROW(barabasi_albert(5, 0, 1), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(3, 3, 1), std::invalid_argument);
}

TEST(PowerlawCluster, ClusteringIncreasesWithTriangleP) {
  const Graph flat = powerlaw_cluster(1500, 4, 0.0, 17);
  const Graph clustered = powerlaw_cluster(1500, 4, 0.9, 17);
  EXPECT_GT(average_local_clustering(clustered),
            2.0 * average_local_clustering(flat));
}

TEST(PowerlawCluster, ConnectedAndSized) {
  const Graph g = powerlaw_cluster(800, 3, 0.5, 19);
  EXPECT_EQ(g.num_vertices(), 800u);
  EXPECT_TRUE(is_connected(g));
}

TEST(PowerlawCluster, BadParamsThrow) {
  EXPECT_THROW(powerlaw_cluster(100, 2, -0.5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_cluster(100, 2, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_cluster(2, 2, 0.5, 1), std::invalid_argument);
}

TEST(PlantedPartition, BlockStructureDominates) {
  const Graph g = planted_partition(400, 4, 0.3, 0.005, 41);
  // Count within- vs cross-block edges (contiguous equal blocks of 100).
  std::uint64_t within = 0, cross = 0;
  for (const Edge& e : g.edges()) {
    if (e.u / 100 == e.v / 100) ++within;
    else ++cross;
  }
  EXPECT_GT(within, 8 * cross);
}

TEST(PlantedPartition, SingleBlockIsErdosRenyi) {
  const Graph g = planted_partition(200, 1, 0.1, 0.0, 43);
  const double expected = 0.1 * 200 * 199 / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 0.2 * expected);
}

TEST(PlantedPartition, BadParamsThrow) {
  EXPECT_THROW(planted_partition(10, 0, 0.5, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(planted_partition(10, 2, 1.5, 0.1, 1), std::invalid_argument);
}

TEST(Affiliation, ProducesCliquesPerGroup) {
  AffiliationParams params;
  params.num_actors = 300;
  params.num_groups = 150;
  params.min_group = 3;
  params.max_group = 6;
  const Graph g = affiliation_graph(params, 47);
  // Clique-heavy construction -> high clustering.
  EXPECT_GT(average_local_clustering(g), 0.3);
}

TEST(Affiliation, RegionalModelLimitsCrossEdges) {
  AffiliationParams params;
  params.num_actors = 1000;
  params.num_groups = 600;
  params.min_group = 2;
  params.max_group = 5;
  params.regions = 10;
  params.cross_region_p = 0.0;
  const Graph g = affiliation_graph(params, 53);
  // With no cross-region groups, all edges stay within 100-actor regions.
  for (const Edge& e : g.edges()) EXPECT_EQ(e.u / 100, e.v / 100);
}

TEST(Affiliation, BadParamsThrow) {
  AffiliationParams params;
  params.num_actors = 0;
  EXPECT_THROW(affiliation_graph(params, 1), std::invalid_argument);
  params.num_actors = 10;
  params.min_group = 1;
  EXPECT_THROW(affiliation_graph(params, 1), std::invalid_argument);
  params.min_group = 4;
  params.max_group = 3;
  EXPECT_THROW(affiliation_graph(params, 1), std::invalid_argument);
}

TEST(Generators, AllDeterministicInSeed) {
  EXPECT_EQ(barabasi_albert(200, 2, 5), barabasi_albert(200, 2, 5));
  EXPECT_EQ(powerlaw_cluster(200, 2, 0.5, 5), powerlaw_cluster(200, 2, 0.5, 5));
  EXPECT_EQ(planted_partition(200, 4, 0.2, 0.01, 5),
            planted_partition(200, 4, 0.2, 0.01, 5));
}

}  // namespace
}  // namespace sntrust
