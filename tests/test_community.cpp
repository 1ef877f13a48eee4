#include "community/community.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::two_cliques;

TEST(Fiedler, SeparatesTwoCliques) {
  const Graph g = two_cliques(10);
  const std::vector<double> values = fiedler_vector(g);
  // The Fiedler vector's sign splits the cliques.
  int sign_agree = 0;
  for (VertexId v = 0; v < 10; ++v)
    if ((values[v] < 0) == (values[0] < 0)) ++sign_agree;
  for (VertexId v = 10; v < 20; ++v)
    if ((values[v] < 0) != (values[0] < 0)) ++sign_agree;
  EXPECT_GE(sign_agree, 18);
}

TEST(Fiedler, TooSmallThrows) {
  GraphBuilder b{1};
  EXPECT_THROW(fiedler_vector(b.build()), std::invalid_argument);
}

TEST(ConductanceSweep, FindsTheBridge) {
  const Graph g = two_cliques(10);
  const SweepResult sweep = conductance_sweep(g, fiedler_vector(g));
  EXPECT_EQ(sweep.best_prefix, 10u);
  EXPECT_NEAR(sweep.best_conductance, 1.0 / 91.0, 1e-9);
}

TEST(ConductanceSweep, CurveLengthIsNMinusOne) {
  const Graph g = complete_graph(7);
  std::vector<double> values(7);
  for (VertexId v = 0; v < 7; ++v) values[v] = v;
  const SweepResult sweep = conductance_sweep(g, values);
  EXPECT_EQ(sweep.curve.size(), 6u);
}

TEST(ConductanceSweep, StrongCommunitiesGiveLowerScore) {
  const Graph strong =
      largest_component(planted_partition(300, 2, 0.2, 0.002, 17)).graph;
  const Graph weak =
      largest_component(planted_partition(300, 2, 0.2, 0.08, 17)).graph;
  const double phi_strong =
      conductance_sweep(strong, fiedler_vector(strong)).best_conductance;
  const double phi_weak =
      conductance_sweep(weak, fiedler_vector(weak)).best_conductance;
  EXPECT_LT(phi_strong, phi_weak);
}

TEST(ConductanceSweep, SizeMismatchThrows) {
  const Graph g = complete_graph(4);
  EXPECT_THROW(conductance_sweep(g, {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
