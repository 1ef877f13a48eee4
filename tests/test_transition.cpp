#include "markov/transition.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "gen/generators.hpp"
#include "markov/modulated.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;

TEST(Transition, PreservesMass) {
  const Graph g = testing::petersen_graph();
  Distribution p = dirac(10, 0);
  Distribution out;
  for (int s = 0; s < 20; ++s) {
    step_distribution(g, p, out);
    p.swap(out);
    EXPECT_NEAR(mass(p), 1.0, 1e-12);
  }
}

TEST(Transition, SplitsEvenlyAmongNeighbors) {
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  Distribution out;
  step_distribution(g, p, out);
  for (VertexId leaf = 1; leaf < 5; ++leaf)
    EXPECT_DOUBLE_EQ(out[leaf], 0.25);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(Transition, StarOscillates) {
  // From the hub: all mass to leaves, then all back.
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  evolve(g, p, 2);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

TEST(Transition, LazyKillsOscillation) {
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  evolve(g, p, 200, /*lazy=*/true);
  const Distribution pi = stationary_distribution(g);
  EXPECT_LT(total_variation(p, pi), 1e-6);
}

TEST(Transition, StationaryIsFixedPoint) {
  for (const Graph& g : {path_graph(7), cycle_graph(8), complete_graph(5),
                         testing::barbell_graph()}) {
    const Distribution pi = stationary_distribution(g);
    Distribution out;
    step_distribution(g, pi, out);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(out[v], pi[v], 1e-12);
  }
}

TEST(Transition, ConvergesOnAperiodicGraph) {
  const Graph g = testing::barbell_graph();  // has triangles -> aperiodic
  Distribution p = dirac(6, 0);
  evolve(g, p, 500);
  const Distribution pi = stationary_distribution(g);
  EXPECT_LT(total_variation(p, pi), 1e-8);
}

TEST(Transition, SizeMismatchThrows) {
  const Graph g = path_graph(4);
  Distribution p(3, 0.0);
  Distribution out;
  EXPECT_THROW(step_distribution(g, p, out), std::invalid_argument);
}

TEST(Transition, AliasThrows) {
  const Graph g = path_graph(4);
  Distribution p = dirac(4, 0);
  EXPECT_THROW(step_distribution(g, p, p), std::invalid_argument);
}

TEST(Transition, IsolatedVertexKeepsNoMassFlowing) {
  // Vertex 2 isolated: mass on it stays only via the lazy self loop.
  GraphBuilder b{3};
  b.add_edge(0, 1);
  const Graph g = b.build();
  Distribution p = dirac(3, 2);
  Distribution out;
  step_distribution(g, p, out);
  EXPECT_DOUBLE_EQ(mass(out), 0.0);  // plain chain drops stranded mass
  step_distribution_lazy(g, p, out);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(Transition, LazyIsAverageOfPlainAndIdentity) {
  const Graph g = cycle_graph(6);
  const Distribution p = dirac(6, 2);
  Distribution plain, lazy;
  step_distribution(g, p, plain);
  step_distribution_lazy(g, p, lazy);
  for (VertexId v = 0; v < 6; ++v)
    EXPECT_NEAR(lazy[v], 0.5 * plain[v] + 0.5 * p[v], 1e-15);
}

// The gather before the lane kernels pre-divided: one divide per edge and a
// skip of zero entries. The pre-divided kernels must match it bitwise.
double per_edge_gather(const Graph& g, const Distribution& p, VertexId v) {
  const auto& offsets = g.offsets();
  double acc = 0.0;
  for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
    const VertexId w = g.targets()[i];
    if (p[w] == 0.0) continue;
    acc += p[w] / static_cast<double>(offsets[w + 1] - offsets[w]);
  }
  return acc;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Transition, PreDividedKernelsMatchPerEdgeDivision) {
  // A generated graph plus one isolated vertex, and a distribution mixing
  // zeros, negative zeros, subnormals and ordinary values.
  const Graph base = barabasi_albert(400, 3, 13);
  GraphBuilder b{base.num_vertices() + 1};
  for (VertexId v = 0; v < base.num_vertices(); ++v)
    for (const VertexId w : base.neighbors(v))
      if (v < w) b.add_edge(v, w);
  const Graph g = b.build();
  const VertexId n = g.num_vertices();
  Rng rng{5};
  Distribution p(n);
  for (VertexId v = 0; v < n; ++v) {
    switch (rng() % 4) {
      case 0: p[v] = 0.0; break;
      case 1: p[v] = -0.0; break;
      case 2: p[v] = std::numeric_limits<double>::denorm_min() * (v + 1); break;
      default: p[v] = static_cast<double>(rng() % 1000) / 997.0; break;
    }
  }
  constexpr double kAlpha = 0.3;
  constexpr VertexId kOriginator = 17;
  Distribution plain, lazy, modulated, biased;
  step_distribution(g, p, plain);
  step_distribution_lazy(g, p, lazy);
  step_modulated(g, p, modulated, kAlpha);
  step_originator_biased(g, p, biased, kAlpha, kOriginator);
  for (VertexId v = 0; v < n; ++v) {
    const double acc = per_edge_gather(g, p, v);
    ASSERT_EQ(bits(plain[v]), bits(acc)) << "vertex " << v;
    ASSERT_EQ(bits(lazy[v]), bits(0.5 * acc + 0.5 * p[v])) << "vertex " << v;
    ASSERT_EQ(bits(modulated[v]), bits(kAlpha * p[v] + (1.0 - kAlpha) * acc))
        << "vertex " << v;
    double expected = acc * (1.0 - kAlpha);
    if (v == kOriginator) expected += kAlpha;
    ASSERT_EQ(bits(biased[v]), bits(expected)) << "vertex " << v;
  }
}

}  // namespace
}  // namespace sntrust
