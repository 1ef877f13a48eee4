#include "markov/frontier.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/transition.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::barbell_graph;
using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::star_graph;
using testing::two_cliques;

std::vector<Graph> seed_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(path_graph(12));
  graphs.push_back(cycle_graph(10));
  graphs.push_back(star_graph(9));
  graphs.push_back(complete_graph(8));
  graphs.push_back(barbell_graph());
  graphs.push_back(two_cliques(5));
  graphs.push_back(petersen_graph());
  return graphs;
}

// The dense crossover fractions that force each kernel: dense from the first
// step, the default auto crossover, and sparse until saturation.
constexpr double kDense = 0.0;
constexpr double kAuto = 0.5;
constexpr double kSparse = std::numeric_limits<double>::infinity();

MixingCurves run_with_fraction(const Graph& g, double fraction, bool lazy) {
  MixingOptions options;
  options.num_sources = 6;
  options.max_walk_length = 25;
  options.seed = 7;
  options.lazy = lazy;
  options.kernel_dense_fraction = fraction;
  return measure_mixing(g, options);
}

void expect_bitwise_equal(const MixingCurves& a, const MixingCurves& b) {
  ASSERT_EQ(a.sources, b.sources);
  ASSERT_EQ(a.tvd.size(), b.tvd.size());
  for (std::size_t s = 0; s < a.tvd.size(); ++s) {
    ASSERT_EQ(a.tvd[s].size(), b.tvd[s].size());
    for (std::size_t t = 0; t < a.tvd[s].size(); ++t)
      // EXPECT_EQ on doubles is exact (bitwise for non-NaN) equality.
      EXPECT_EQ(a.tvd[s][t], b.tvd[s][t])
          << "source " << s << " step " << t;
  }
}

TEST(SupportTvd, MatchesDenseTotalVariation) {
  for (const Graph& g : seed_graphs()) {
    const Distribution pi = stationary_distribution(g);
    const StationaryPrefix prefix{pi};
    // Evolve a point mass densely and compare the support-aware TVD (with
    // the structural support tracked by a FrontierWalk) against the plain
    // full-range total variation at every step.
    FrontierWalk walk{g, {kSparse}};
    walk.reset(0);
    for (std::uint32_t t = 0; t <= 12; ++t) {
      if (t > 0) walk.step(StepKind::kPlain);
      const double sparse = walk.tvd(pi, prefix);
      const double dense = total_variation(walk.distribution(), pi);
      EXPECT_NEAR(sparse, dense, 1e-12) << "step " << t;
    }
  }
}

TEST(SupportTvd, FullSupportMatchesExactly) {
  const Graph g = petersen_graph();
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  const Distribution p = dirac(g.num_vertices(), 3);
  EXPECT_EQ(support_tvd(p, all, pi, prefix), total_variation(p, pi));
}

TEST(FrontierKernels, CurvesBitwiseIdenticalAcrossModes) {
  for (const Graph& g : seed_graphs()) {
    for (const bool lazy : {false, true}) {
      const MixingCurves dense = run_with_fraction(g, kDense, lazy);
      const MixingCurves sparse = run_with_fraction(g, kSparse, lazy);
      const MixingCurves automatic = run_with_fraction(g, kAuto, lazy);
      expect_bitwise_equal(dense, sparse);
      expect_bitwise_equal(dense, automatic);
    }
  }
}

TEST(FrontierKernels, CurvesBitwiseIdenticalOnGeneratedGraph) {
  for (const Graph& g :
       {largest_component(barabasi_albert(400, 3, 11)).graph,
        largest_component(barabasi_albert(300, 2, 5)).graph}) {
    const MixingCurves dense = run_with_fraction(g, kDense, false);
    const MixingCurves sparse = run_with_fraction(g, kSparse, false);
    const MixingCurves automatic = run_with_fraction(g, kAuto, false);
    expect_bitwise_equal(dense, sparse);
    expect_bitwise_equal(dense, automatic);
  }
}

TEST(FrontierKernels, ZeroThresholdForcesDenseFromFirstStep) {
  const Graph g = two_cliques(6);
  FrontierWalk walk{g, {kDense}};
  walk.reset(0);
  for (std::uint32_t t = 0; t < 5; ++t) {
    walk.step(StepKind::kPlain);
    EXPECT_TRUE(walk.last_step_dense()) << "step " << t;
  }
}

TEST(FrontierKernels, InfiniteThresholdStaysSparseUntilSaturation) {
  const Graph g = path_graph(16);
  FrontierWalk walk{g, {kSparse}};
  walk.reset(0);
  // The lazy chain's support is the ball of radius t around the source (the
  // path's endpoint), so it saturates exactly at t = eccentricity = 15; every
  // step before that must use the sparse pull.
  for (std::uint32_t t = 1; t <= 15; ++t) {
    walk.step(StepKind::kLazy);
    EXPECT_FALSE(walk.last_step_dense()) << "step " << t;
    EXPECT_EQ(walk.saturated(), t >= 15) << "step " << t;
    EXPECT_EQ(walk.support().size(), std::min<std::size_t>(t + 1, 16u));
  }
  walk.step(StepKind::kLazy);
  EXPECT_TRUE(walk.last_step_dense());  // saturated fast path
}

TEST(FrontierKernels, SparseSweepThreadCountInvariant) {
  const Graph g = largest_component(powerlaw_cluster(350, 3, 0.4, 17)).graph;
  for (const double fraction : {kSparse, kDense, kAuto}) {
    MixingCurves serial, threaded;
    {
      parallel::ScopedThreadCount scope{1};
      serial = run_with_fraction(g, fraction, false);
    }
    {
      parallel::ScopedThreadCount scope{4};
      threaded = run_with_fraction(g, fraction, false);
    }
    expect_bitwise_equal(serial, threaded);
  }
}

TEST(FrontierWalk, SaturatedWalksSkipBookkeeping) {
  const Graph g = complete_graph(10);
  FrontierWalk walk{g, {kAuto}};
  walk.reset(0);
  // Lazy support = closed neighbourhood, so one step saturates K_10. (The
  // plain chain would need two: a point mass's first support excludes the
  // source itself.)
  walk.step(StepKind::kLazy);
  EXPECT_TRUE(walk.saturated());
  walk.step(StepKind::kLazy);
  EXPECT_TRUE(walk.last_step_dense());
  EXPECT_EQ(walk.last_frontier_degree(), 0u);  // no candidate set built
}

TEST(FrontierWalk, ResetReusesWorkspaceAcrossSources) {
  const Graph g = two_cliques(4);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  FrontierWalk walk{g, {kSparse}};
  for (const VertexId source : {VertexId{0}, VertexId{7}, VertexId{3}}) {
    walk.reset(source);
    EXPECT_EQ(walk.support().size(), 1u);
    EXPECT_EQ(walk.distribution()[source], 1.0);
    for (std::uint32_t t = 0; t < 6; ++t) walk.step(StepKind::kPlain);
    Distribution expected = dirac(g.num_vertices(), source);
    Distribution scratch(expected.size());
    for (std::uint32_t t = 0; t < 6; ++t) {
      step_distribution(g, expected, scratch);
      expected.swap(scratch);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(walk.distribution()[v], expected[v]) << "vertex " << v;
  }
}

TEST(FrontierWalk, BadArgumentsThrow) {
  const Graph g = path_graph(4);
  FrontierWalk walk{g};
  EXPECT_THROW(walk.reset(4), std::out_of_range);
  walk.reset(0);
  EXPECT_THROW(walk.step(StepKind::kModulated, 1.0), std::invalid_argument);
  EXPECT_THROW(walk.step(StepKind::kModulated, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
