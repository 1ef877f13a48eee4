#include "markov/walker.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;

TEST(RandomWalker, WalkHasRequestedLength) {
  const Graph g = petersen_graph();
  RandomWalker walker{g, 1};
  const auto trail = walker.walk(0, 25);
  EXPECT_EQ(trail.size(), 26u);
  EXPECT_EQ(trail.front(), 0u);
}

TEST(RandomWalker, ConsecutiveVerticesAreAdjacent) {
  const Graph g = petersen_graph();
  RandomWalker walker{g, 2};
  const auto trail = walker.walk(3, 50);
  for (std::size_t i = 1; i < trail.size(); ++i)
    EXPECT_TRUE(g.has_edge(trail[i - 1], trail[i]));
}

TEST(RandomWalker, EndpointMatchesWalkDistributionShape) {
  // On K_n the endpoint of a 3-step walk is uniform over non-stay choices;
  // just check every vertex is reachable and counts are roughly even.
  const Graph g = complete_graph(5);
  RandomWalker walker{g, 3};
  std::map<VertexId, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[walker.walk_endpoint(0, 3)];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [v, c] : counts) EXPECT_GT(c, 2000);
}

TEST(RandomWalker, IsolatedStartThrows) {
  GraphBuilder b{2};
  const Graph g = b.build();
  RandomWalker walker{g, 1};
  EXPECT_THROW(walker.walk(0, 3), std::invalid_argument);
  EXPECT_THROW(walker.walk_endpoint(0, 3), std::invalid_argument);
}

TEST(RandomWalker, BadStartThrows) {
  const Graph g = path_graph(3);
  RandomWalker walker{g, 1};
  EXPECT_THROW(walker.walk(9, 3), std::out_of_range);
}

TEST(RandomWalker, ZeroLengthWalkStaysPut) {
  const Graph g = path_graph(3);
  RandomWalker walker{g, 1};
  EXPECT_EQ(walker.walk_endpoint(1, 0), 1u);
  EXPECT_EQ(walker.walk(1, 0).size(), 1u);
}

TEST(HashedRoutes, RoutesFollowEdgesAndAreDeterministic) {
  const Graph g = petersen_graph();
  const HashedRoutes routes{g, 11};
  const auto a = routes.route(0, 1, 25, 3);
  const auto b = routes.route(0, 1, 25, 3);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_TRUE(g.has_edge(a[i - 1], a[i]));
}

TEST(HashedRoutes, InstancesDiffer) {
  const Graph g = petersen_graph();
  const HashedRoutes routes{g, 11};
  const auto a = routes.route(0, 1, 25, 0);
  const auto b = routes.route(0, 1, 25, 1);
  EXPECT_NE(a, b);
}

TEST(HashedRoutes, ConvergencePropertyPerInstance) {
  // Routes of length 60 on a 30-directed-edge graph must revisit directed
  // edges; scan instances until two routes share one, then require the
  // suffixes to coincide (the convergence property). At least one of the
  // instances must exhibit a shared edge.
  const Graph g = petersen_graph();
  const HashedRoutes routes{g, 13};
  bool checked = false;
  for (std::uint32_t instance = 0; instance < 10 && !checked; ++instance) {
    const auto a = routes.route(0, 0, 60, instance);
    const auto b = routes.route(5, 1, 60, instance);
    for (std::size_t i = 1; i < a.size() && !checked; ++i) {
      for (std::size_t j = 1; j < b.size() && !checked; ++j) {
        if (a[i - 1] == b[j - 1] && a[i] == b[j]) {
          const std::size_t len = std::min(a.size() - i, b.size() - j);
          for (std::size_t k = 0; k < len; ++k)
            ASSERT_EQ(a[i + k], b[j + k]);
          checked = true;
        }
      }
    }
  }
  EXPECT_TRUE(checked) << "no instance produced intersecting routes";
}

TEST(HashedRoutes, TailMatchesRoute) {
  const Graph g = cycle_graph(8);
  const HashedRoutes routes{g, 17};
  const auto trail = routes.route(2, 0, 9, 4);
  const auto [u, w] = routes.route_tail(2, 0, 9, 4);
  EXPECT_EQ(u, trail[trail.size() - 2]);
  EXPECT_EQ(w, trail.back());
}

TEST(HashedRoutes, BadSlotThrows) {
  const Graph g = cycle_graph(5);
  const HashedRoutes routes{g, 1};
  EXPECT_THROW(routes.route(0, 2, 5, 0), std::out_of_range);
  EXPECT_THROW(routes.route_tail(0, 0, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
