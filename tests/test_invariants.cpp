// Cross-module invariant sweep: every generator family is pushed through
// the full measurement stack and the structural invariants that the paper's
// methodology relies on are asserted on each. One parameterized suite
// instead of per-module copies.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>

#include "cores/core_profile.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/traversal.hpp"
#include "markov/distribution.hpp"
#include "markov/spectral.hpp"
#include "markov/transition.hpp"

namespace sntrust {
namespace {

struct GeneratorCase {
  std::string name;
  std::function<Graph(std::uint64_t seed)> make;
};

void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class GeneratorInvariants : public ::testing::TestWithParam<GeneratorCase> {
 protected:
  Graph connected_graph() {
    return largest_component(GetParam().make(12345)).graph;
  }
};

TEST_P(GeneratorInvariants, HandshakeLemma) {
  const Graph g = GetParam().make(1);
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST_P(GeneratorInvariants, DeterministicInSeed) {
  EXPECT_EQ(GetParam().make(7), GetParam().make(7));
}

TEST_P(GeneratorInvariants, LargestComponentIsConnected) {
  const Graph g = connected_graph();
  EXPECT_TRUE(is_connected(g));
  EXPECT_GT(g.num_vertices(), 16u);
}

TEST_P(GeneratorInvariants, BfsDistancesLipschitzOnEdges) {
  const Graph g = connected_graph();
  const BfsResult result = bfs(g, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId w : g.neighbors(v)) {
      const std::uint32_t dv = result.distances[v];
      const std::uint32_t dw = result.distances[w];
      EXPECT_LE(dv > dw ? dv - dw : dw - dv, 1u);
    }
}

TEST_P(GeneratorInvariants, CorenessFixpoint) {
  const Graph g = connected_graph();
  const CoreDecomposition cores = core_decomposition(g);
  // Every vertex has >= coreness[v] neighbours of coreness >= coreness[v].
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint32_t inside = 0;
    for (const VertexId w : g.neighbors(v))
      if (cores.coreness[w] >= cores.coreness[v]) ++inside;
    EXPECT_GE(inside, cores.coreness[v]) << "vertex " << v;
  }
}

TEST_P(GeneratorInvariants, CoreProfileMonotoneAndConsistent) {
  const Graph g = connected_graph();
  const auto levels = core_profile(g);
  double previous_nu = 1.0 + 1e-9;
  for (const CoreLevel& level : levels) {
    EXPECT_LE(level.nu, previous_nu);
    previous_nu = level.nu;
    EXPECT_LE(level.largest_component, level.vertices);
    EXPECT_GE(level.num_components, 1u);
    EXPECT_LE(level.edges, g.num_edges());
  }
}

TEST_P(GeneratorInvariants, StationaryIsTransitionFixedPoint) {
  const Graph g = connected_graph();
  const Distribution pi = stationary_distribution(g);
  Distribution out;
  step_distribution(g, pi, out);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(out[v], pi[v], 1e-12);
}

TEST_P(GeneratorInvariants, LazyWalkTvdMonotone) {
  const Graph g = connected_graph();
  const Distribution pi = stationary_distribution(g);
  Distribution p = dirac(g.num_vertices(), 0);
  Distribution buffer(p.size());
  double previous = total_variation(p, pi);
  for (int t = 0; t < 25; ++t) {
    step_distribution_lazy(g, p, buffer);
    p.swap(buffer);
    const double now = total_variation(p, pi);
    EXPECT_LE(now, previous + 1e-12);
    previous = now;
  }
}

TEST_P(GeneratorInvariants, SlemInUnitInterval) {
  const Graph g = connected_graph();
  const SlemResult slem = second_largest_eigenvalue(g);
  EXPECT_GT(slem.mu, 0.0);
  EXPECT_LE(slem.mu, 1.0 + 1e-9);
}

TEST_P(GeneratorInvariants, ExpansionMatchesBfsLevels) {
  const Graph g = connected_graph();
  ExpansionOptions options;
  options.num_sources = 32;
  options.seed = 9;
  const ExpansionProfile profile = measure_expansion(g, options);
  ASSERT_FALSE(profile.points.empty());
  // Total observations = sum over sources of (depth); cross-check a few
  // global constraints instead of recomputing every BFS.
  std::uint64_t observations = 0;
  for (const ExpansionPoint& point : profile.points) {
    EXPECT_GE(point.set_size, 1u);
    EXPECT_LE(point.set_size, g.num_vertices());
    EXPECT_LE(point.min_neighbors, point.max_neighbors);
    observations += point.observations;
  }
  EXPECT_GE(observations, profile.sources_used);  // >= 1 level per source
  EXPECT_LE(observations,
            static_cast<std::uint64_t>(profile.sources_used) *
                (profile.max_depth == 0 ? 1 : profile.max_depth));
}

INSTANTIATE_TEST_SUITE_P(
    Generators, GeneratorInvariants,
    ::testing::Values(
        GeneratorCase{"erdos_renyi",
                      [](std::uint64_t s) { return erdos_renyi(300, 0.03, s); }},
        GeneratorCase{"barabasi_albert",
                      [](std::uint64_t s) { return barabasi_albert(300, 3, s); }},
        GeneratorCase{"powerlaw_cluster",
                      [](std::uint64_t s) {
                        return powerlaw_cluster(300, 3, 0.6, s);
                      }},
        GeneratorCase{"planted_partition",
                      [](std::uint64_t s) {
                        return planted_partition(300, 6, 0.2, 0.01, s);
                      }},
        GeneratorCase{"affiliation",
                      [](std::uint64_t s) {
                        AffiliationParams p;
                        p.num_actors = 300;
                        p.num_groups = 260;
                        p.min_group = 2;
                        p.max_group = 5;
                        p.regions = 6;
                        p.cross_region_p = 0.1;
                        return affiliation_graph(p, s);
                      }},
        GeneratorCase{"powerlaw_community",
                      [](std::uint64_t s) {
                        PowerlawCommunityParams p;
                        p.num_vertices = 300;
                        p.gamma = 2.2;
                        p.min_degree = 3;
                        p.max_degree_cap = 40;
                        p.blocks = 6;
                        p.global_fraction = 0.2;
                        return powerlaw_community(p, s);
                      }}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace sntrust
