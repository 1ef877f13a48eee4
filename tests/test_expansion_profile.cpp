#include "expansion/expansion_profile.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/frontier_bfs.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::two_cliques;

TEST(ExpansionProfile, CycleExactValues) {
  // On C_n every source sees levels 1,2,2,...,2(,1); envelope sizes are odd
  // numbers, each expanding by exactly 2 until the wrap.
  const ExpansionProfile profile = measure_expansion(cycle_graph(11));
  EXPECT_EQ(profile.sources_used, 11u);
  for (const ExpansionPoint& point : profile.points) {
    if (point.set_size < 9) {
      EXPECT_EQ(point.min_neighbors, 2u);
      EXPECT_EQ(point.max_neighbors, 2u);
    }
  }
}

TEST(ExpansionProfile, CompleteGraphOnePoint) {
  const ExpansionProfile profile = measure_expansion(complete_graph(6));
  ASSERT_EQ(profile.points.size(), 1u);
  EXPECT_EQ(profile.points[0].set_size, 1u);
  EXPECT_EQ(profile.points[0].mean_neighbors, 5.0);
  EXPECT_EQ(profile.points[0].observations, 6u);
  EXPECT_EQ(profile.max_depth, 1u);
}

TEST(ExpansionProfile, PointsSortedBySetSize) {
  const ExpansionProfile profile = measure_expansion(petersen_graph());
  for (std::size_t i = 1; i < profile.points.size(); ++i)
    EXPECT_LT(profile.points[i - 1].set_size, profile.points[i].set_size);
}

TEST(ExpansionProfile, MinLeMeanLeMax) {
  const Graph g =
      largest_component(erdos_renyi(300, 0.03, 101)).graph;
  const ExpansionProfile profile = measure_expansion(g);
  for (const ExpansionPoint& point : profile.points) {
    EXPECT_LE(static_cast<double>(point.min_neighbors),
              point.mean_neighbors + 1e-12);
    EXPECT_LE(point.mean_neighbors,
              static_cast<double>(point.max_neighbors) + 1e-12);
  }
}

TEST(ExpansionProfile, SampledSubsetOfSources) {
  const Graph g = largest_component(barabasi_albert(400, 3, 102)).graph;
  ExpansionOptions options;
  options.num_sources = 50;
  const ExpansionProfile profile = measure_expansion(g, options);
  EXPECT_EQ(profile.sources_used, 50u);
}

TEST(ExpansionProfile, SourceCountAboveNMeansAll) {
  const Graph g = petersen_graph();
  ExpansionOptions options;
  options.num_sources = 999;
  EXPECT_EQ(measure_expansion(g, options).sources_used, 10u);
}

TEST(ExpansionProfile, ObservationsSumMatchesSourceLevels) {
  // Every source contributes (depth(source)) observations: one per level
  // except the last.
  const Graph g = two_cliques(4);
  const ExpansionProfile profile = measure_expansion(g);
  std::uint64_t total_observations = 0;
  for (const ExpansionPoint& point : profile.points)
    total_observations += point.observations;
  std::uint64_t expected = 0;
  FrontierBfs runner{g};
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    expected += runner.run(v).level_sizes.size() - 1;
  EXPECT_EQ(total_observations, expected);
}

TEST(ExpansionProfile, BarbellHasWeakPoint) {
  // The bridge makes a half-size envelope with only 1 neighbour.
  const ExpansionProfile profile = measure_expansion(two_cliques(8));
  const double min_alpha = profile.min_alpha(16);
  EXPECT_LT(min_alpha, 0.2);
}

TEST(ExpansionProfile, ExpanderBeatsBarbell) {
  const Graph expander =
      largest_component(barabasi_albert(64, 4, 103)).graph;
  const Graph barbell = two_cliques(32);
  const double alpha_good =
      measure_expansion(expander).min_alpha(expander.num_vertices());
  const double alpha_bad =
      measure_expansion(barbell).min_alpha(barbell.num_vertices());
  EXPECT_GT(alpha_good, alpha_bad);
}

TEST(ExpansionProfile, DisconnectedThrows) {
  EXPECT_THROW(measure_expansion(testing::disconnected_graph()),
               std::invalid_argument);
}

TEST(ExpansionProfile, EmptyThrows) {
  EXPECT_THROW(measure_expansion(Graph{}), std::invalid_argument);
}

TEST(ExpansionProfile, MeanAlphaDefinition) {
  ExpansionPoint point;
  point.set_size = 10;
  point.mean_neighbors = 2.5;
  EXPECT_DOUBLE_EQ(point.mean_alpha(), 0.25);
  point.set_size = 0;
  EXPECT_DOUBLE_EQ(point.mean_alpha(), 0.0);
}

}  // namespace
}  // namespace sntrust
