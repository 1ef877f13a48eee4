// Statistical correctness of the stochastic components: Monte-Carlo
// machinery must converge to the exact quantities the deterministic
// machinery computes. These are distribution-level checks (generous
// tolerances, fixed seeds) — not flaky 1-in-a-million assertions.
#include <gtest/gtest.h>

#include <cmath>

#include "community/community.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/traversal.hpp"
#include "markov/dense_spectrum.hpp"
#include "markov/spectral.hpp"
#include "markov/transition.hpp"
#include "markov/walker.hpp"
#include "sybil/gatekeeper.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::petersen_graph;
using testing::two_cliques;

TEST(Statistical, WalkEndpointsMatchExactDistribution) {
  // Empirical endpoint frequencies of many t-step walks must match e_s P^t.
  const Graph g = two_cliques(6);
  const std::uint32_t t = 7;
  Distribution expected = dirac(g.num_vertices(), 0);
  evolve(g, expected, t);

  RandomWalker walker{g, 99};
  constexpr std::uint32_t kWalks = 60000;
  std::vector<double> empirical(g.num_vertices(), 0.0);
  for (std::uint32_t i = 0; i < kWalks; ++i)
    empirical[walker.walk_endpoint(0, t)] += 1.0 / kWalks;
  EXPECT_LT(total_variation(empirical, expected), 0.02);
}

TEST(Statistical, RouteFirstHopIsUniformOverSlots) {
  // A route's first hop leaving through slot i visits neighbors[i]; over
  // uniformly drawn slots the first-hop distribution is uniform over the
  // neighbourhood (the property SybilLimit's tail analysis needs).
  const Graph g = petersen_graph();
  const HashedRoutes routes{g, 7};
  std::vector<std::uint32_t> counts(3, 0);
  Rng rng{7};
  for (int i = 0; i < 30000; ++i) {
    const auto slot = static_cast<std::uint32_t>(rng.uniform(3));
    const auto trail = routes.route(0, slot, 1, 0);
    // Map the landed neighbour back to its index.
    const auto nbrs = g.neighbors(0);
    for (std::uint32_t k = 0; k < 3; ++k)
      if (nbrs[k] == trail[1]) ++counts[k];
  }
  for (const auto c : counts) {
    EXPECT_GT(c, 9000u);
    EXPECT_LT(c, 11000u);
  }
}

TEST(Statistical, SybilLimitTailsFollowStationaryEdgeMeasure) {
  // Long-route tails land on directed edges ~uniformly (the stationary
  // measure of the route process). Check via the tail-vertex marginal: it
  // should be close to the degree distribution.
  const Graph g = largest_component(barabasi_albert(150, 3, 11)).graph;
  const HashedRoutes routes{g, 11};
  const Distribution pi = stationary_distribution(g);
  std::vector<double> empirical(g.num_vertices(), 0.0);
  Rng rng{11};
  constexpr std::uint32_t kRoutes = 30000;
  for (std::uint32_t i = 0; i < kRoutes; ++i) {
    const auto v = static_cast<VertexId>(rng.uniform(g.num_vertices()));
    const auto slot = static_cast<std::uint32_t>(rng.uniform(g.degree(v)));
    const auto [tail_u, tail_w] = routes.route_tail(v, slot, 25, i % 64);
    empirical[tail_w] += 1.0 / kRoutes;
  }
  // Starting vertices were uniform (not stationary), so allow a loose match.
  EXPECT_LT(total_variation(empirical, pi), 0.15);
}

TEST(Statistical, GateKeeperTicketConservation) {
  // Tickets are conserved level by level: what arrives at BFS level l+1 is
  // what arrived at level l minus one consumed per reached vertex (and
  // minus dead-end losses). A ticket travelling k levels is counted once at
  // each level, so the correct invariant is the per-level recurrence, not a
  // global sum.
  const Graph g = largest_component(barabasi_albert(300, 3, 13)).graph;
  const TicketRun run = distribute_tickets(g, 0, 777);
  std::uint64_t consumed_total = 0;
  for (const auto flag : run.reached)
    if (flag) ++consumed_total;
  EXPECT_EQ(consumed_total, run.vertices_reached);
  EXPECT_LE(consumed_total, run.tickets_sent);

  const BfsResult levels = bfs(g, 0);
  std::vector<std::uint64_t> received_at(levels.level_sizes.size(), 0);
  std::vector<std::uint64_t> consumed_at(levels.level_sizes.size(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (levels.distances[v] == kUnreachable) continue;
    received_at[levels.distances[v]] += run.tickets_received[v];
    if (run.reached[v]) ++consumed_at[levels.distances[v]];
  }
  EXPECT_EQ(received_at[0], run.tickets_sent);
  for (std::size_t l = 0; l + 1 < received_at.size(); ++l)
    EXPECT_LE(received_at[l + 1], received_at[l] - consumed_at[l])
        << "level " << l;
}

TEST(Statistical, CheegerBracketsSweepConductance) {
  // Cheeger: gap/2 <= phi(G) <= sqrt(2 gap); the sweep finds a cut whose
  // conductance must respect the upper bound (it is a real cut) and the
  // true phi respects the lower one (we check the sweep's result, which
  // upper-bounds phi, against the lower bound too).
  for (const Graph& g :
       {two_cliques(8),
        largest_component(planted_partition(200, 3, 0.25, 0.01, 17)).graph}) {
    const DenseSpectrum spectrum = dense_spectrum(g);
    const CheegerBounds bounds = cheeger_bounds(spectrum.eigenvalues[1]);
    const double sweep_phi =
        conductance_sweep(g, fiedler_vector(g)).best_conductance;
    EXPECT_GE(sweep_phi + 1e-9, bounds.lower);
    EXPECT_LE(sweep_phi, bounds.upper + 1e-9);
  }
}

TEST(Statistical, CheegerBoundsBasics) {
  const CheegerBounds tight = cheeger_bounds(1.0);
  EXPECT_DOUBLE_EQ(tight.lower, 0.0);
  EXPECT_DOUBLE_EQ(tight.upper, 0.0);
  const CheegerBounds loose = cheeger_bounds(0.0);
  EXPECT_DOUBLE_EQ(loose.lower, 0.5);
  EXPECT_NEAR(loose.upper, std::sqrt(2.0), 1e-12);
  EXPECT_THROW(cheeger_bounds(1.5), std::invalid_argument);
}

TEST(Statistical, SpectralGapPredictsTvdDecayRate) {
  // Asymptotically TVD(t) ~ C * mu^t; the measured decay ratio between
  // consecutive late steps should approach the SLEM.
  const Graph g = largest_component(barabasi_albert(200, 4, 19)).graph;
  const double mu = second_largest_eigenvalue(g).mu;
  Distribution p = dirac(g.num_vertices(), 0);
  const Distribution pi = stationary_distribution(g);
  evolve(g, p, 25);
  const double tvd_a = total_variation(p, pi);
  evolve(g, p, 5);
  const double tvd_b = total_variation(p, pi);
  if (tvd_b > 1e-13) {
    const double rate = std::pow(tvd_b / tvd_a, 1.0 / 5.0);
    EXPECT_NEAR(rate, mu, 0.12);
  }
}

}  // namespace
}  // namespace sntrust
