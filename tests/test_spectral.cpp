#include "markov/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/datasets.hpp"
#include "gen/generators.hpp"
#include "gen/sampling.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::two_cliques;

TEST(Slem, CompleteGraphKnownValue) {
  // K_n: eigenvalues of P are 1 and -1/(n-1); SLEM = 1/(n-1).
  const SlemResult r = second_largest_eigenvalue(complete_graph(10));
  EXPECT_TRUE(r.certified);
  EXPECT_NEAR(r.mu, 1.0 / 9.0, 1e-9);
}

TEST(Slem, CycleKnownValue) {
  // C_n: eigenvalues of P are cos(2 pi k / n). C_8 is bipartite, so the
  // modulus of the bottom eigenvalue is 1: SLEM = 1.
  const SlemResult even = second_largest_eigenvalue(cycle_graph(8));
  EXPECT_NEAR(even.mu, 1.0, 1e-9);
  // C_9: the *negative* end dominates — SLEM = |cos(8 pi / 9)| = cos(pi/9),
  // larger than the positive lambda_2 = cos(2 pi / 9).
  const SlemResult odd = second_largest_eigenvalue(cycle_graph(9));
  EXPECT_NEAR(odd.mu, std::cos(M_PI / 9.0), 1e-9);
  EXPECT_NEAR(odd.lambda2, std::cos(2.0 * M_PI / 9.0), 1e-9);
}

TEST(Slem, PetersenKnownValue) {
  // Petersen adjacency eigenvalues {3, 1, -2}; P = A/3 -> SLEM = 2/3.
  const SlemResult r = second_largest_eigenvalue(petersen_graph());
  EXPECT_NEAR(r.mu, 2.0 / 3.0, 1e-9);
}

TEST(Slem, PathIsSlow) {
  const SlemResult r = second_largest_eigenvalue(path_graph(50));
  EXPECT_GT(r.mu, 0.99);
  EXPECT_LT(r.mu, 1.0 + 1e-9);
}

TEST(Slem, BarbellWorseThanExpander) {
  const SlemResult good = second_largest_eigenvalue(petersen_graph());
  const SlemResult bad = second_largest_eigenvalue(two_cliques(6));
  EXPECT_GT(bad.mu, good.mu);
  EXPECT_GT(bad.mu, 0.9);  // bridge bottleneck
}

TEST(Slem, CommunityStrengthRaisesMu) {
  const Graph weak =
      largest_component(planted_partition(400, 4, 0.1, 0.05, 5)).graph;
  const Graph strong =
      largest_component(planted_partition(400, 4, 0.1, 0.002, 5)).graph;
  const double mu_weak = second_largest_eigenvalue(weak).mu;
  const double mu_strong = second_largest_eigenvalue(strong).mu;
  EXPECT_GT(mu_strong, mu_weak);
}

TEST(Slem, DisconnectedThrows) {
  EXPECT_THROW(second_largest_eigenvalue(testing::disconnected_graph()),
               std::invalid_argument);
}

TEST(Slem, EdgelessThrows) {
  GraphBuilder b{2};
  EXPECT_THROW(second_largest_eigenvalue(b.build()), std::invalid_argument);
}

TEST(Slem, DeterministicAcrossCalls) {
  const Graph g = barabasi_albert(300, 3, 9);
  const SlemResult a = second_largest_eigenvalue(g);
  const SlemResult b = second_largest_eigenvalue(g);
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.lambda2_vector, b.lambda2_vector);
}

TEST(Slem, CertifiedBracketContract) {
  for (const Graph& g :
       {petersen_graph(), two_cliques(6), path_graph(50), cycle_graph(9),
        largest_component(barabasi_albert(300, 4, 11)).graph,
        largest_component(planted_partition(400, 4, 0.1, 0.01, 5)).graph}) {
    const SlemResult r = second_largest_eigenvalue(g);
    EXPECT_TRUE(r.certified);
    EXPECT_EQ(r.lo, r.mu);  // a Rayleigh quotient is the lower end
    EXPECT_LE(r.lo, r.hi);
    EXPECT_LT(r.hi - r.lo, kSlemBracketWidth);
    EXPECT_LE(r.lambda2, r.mu);
    EXPECT_GE(r.steps, 1u);
    EXPECT_LT(r.steps, kSlemMaxSteps);
    // The forward steps, then a replay of at most as many and the two
    // Ritz vectors' residuals.
    EXPECT_GT(r.matvecs, r.steps);
    EXPECT_LE(r.matvecs, 2 * r.steps + 1);
    EXPECT_EQ(r.lambda2_vector.size(), g.num_vertices());
  }
}

TEST(Slem, MissedEigenvalueDropsTheFirstBracket) {
  // A sparse random-edge sample of the Epinion analogue: the bracket first
  // narrows around an interior eigenvalue (mu about 0.8683) before the
  // Krylov space has found the SLEM, 0.8697, which 40,000 power iterations
  // reach too. The confirmation at twice the step count drops it.
  const Graph full = dataset_by_id("epinion").generate(0.3, 20110621);
  const Graph g = largest_component(
                      sample_random_edges(full, full.num_vertices() / 5,
                                          20110621)
                          .graph)
                      .graph;
  const SlemResult r = second_largest_eigenvalue(g);
  EXPECT_TRUE(r.certified);
  EXPECT_NEAR(r.mu, 0.869675875, 1e-7);
}

TEST(Slem, BitwiseIdenticalAtOneAndFourThreads) {
  // More rows than the matvec's 2,048-row grain, so four workers split it.
  const Graph g = largest_component(barabasi_albert(10000, 3, 5)).graph;
  SlemResult serial, pooled;
  {
    const parallel::ScopedThreadCount one{1};
    serial = second_largest_eigenvalue(g);
  }
  {
    const parallel::ScopedThreadCount four{4};
    pooled = second_largest_eigenvalue(g);
  }
  EXPECT_EQ(serial.mu, pooled.mu);
  EXPECT_EQ(serial.hi, pooled.hi);
  EXPECT_EQ(serial.lambda2, pooled.lambda2);
  EXPECT_EQ(serial.steps, pooled.steps);
  EXPECT_EQ(serial.lambda2_vector, pooled.lambda2_vector);
}

// Known spectra, one end each: the cases the top-k Lanczos used to check.

TEST(Lanczos, PetersenSpectrumKnown) {
  // N = A/3 has eigenvalues {1, 1/3 (x5), -2/3 (x4)}.
  const SlemResult r = second_largest_eigenvalue(petersen_graph());
  EXPECT_NEAR(r.lambda2, 1.0 / 3.0, 1e-9);
}

TEST(Lanczos, CompleteGraphSpectrumKnown) {
  // K_8: N has eigenvalues {1, -1/7 (x7)}, so lambda_2 = lambda_n = -1/7.
  const SlemResult r = second_largest_eigenvalue(complete_graph(8));
  EXPECT_NEAR(r.lambda2, -1.0 / 7.0, 1e-9);
  EXPECT_NEAR(r.mu, 1.0 / 7.0, 1e-9);
}

TEST(Lanczos, CycleSecondEigenvalue) {
  // C_12: lambda_2 = cos(2 pi / 12) = sqrt(3)/2.
  const SlemResult r = second_largest_eigenvalue(cycle_graph(12));
  EXPECT_NEAR(r.lambda2, std::sqrt(3.0) / 2.0, 1e-9);
}

TEST(Lanczos, TwoCliquesNearDegenerateTop) {
  // A near-disconnected graph has lambda_2 close to 1.
  const SlemResult r = second_largest_eigenvalue(two_cliques(8));
  EXPECT_GT(r.lambda2, 0.9);
  EXPECT_LT(r.lambda2, 1.0);
}

TEST(SinclairBounds, BracketsSamplingEstimate) {
  // On a well-behaved expander the sampling-method T(eps) must land inside
  // the Sinclair bracket.
  const Graph g = largest_component(barabasi_albert(500, 4, 21)).graph;
  const double mu = second_largest_eigenvalue(g).mu;
  const double epsilon = 1.0 / g.num_vertices();
  const MixingBounds bounds = sinclair_bounds(mu, epsilon, g.num_vertices());

  MixingOptions options;
  options.num_sources = 20;
  options.max_walk_length = 200;
  const std::uint32_t t =
      mixing_time_estimate(measure_mixing(g, options), epsilon);
  ASSERT_NE(t, 0xFFFFFFFFu);
  EXPECT_GE(static_cast<double>(t) + 1.0, bounds.lower);
  EXPECT_LE(static_cast<double>(t), bounds.upper + 1.0);
}

TEST(SinclairBounds, MonotoneInMu) {
  const MixingBounds low = sinclair_bounds(0.9, 0.001, 1000);
  const MixingBounds high = sinclair_bounds(0.99, 0.001, 1000);
  EXPECT_LT(low.lower, high.lower);
  EXPECT_LT(low.upper, high.upper);
}

TEST(SinclairBounds, LowerBelowUpper) {
  for (const double mu : {0.5, 0.9, 0.99, 0.999}) {
    const MixingBounds b = sinclair_bounds(mu, 0.01, 10000);
    EXPECT_LT(b.lower, b.upper);
  }
}

TEST(SinclairBounds, BadInputsThrow) {
  EXPECT_THROW(sinclair_bounds(0.0, 0.1, 10), std::invalid_argument);
  EXPECT_THROW(sinclair_bounds(1.0, 0.1, 10), std::invalid_argument);
  EXPECT_THROW(sinclair_bounds(0.5, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(sinclair_bounds(0.5, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(sinclair_bounds(0.5, 0.1, 1), std::invalid_argument);
}

TEST(FormatMu, MarksAnUncertifiedValue) {
  EXPECT_EQ(format_mu(0.99731, true, 4), "0.9973");
  EXPECT_EQ(format_mu(0.99731, false, 4), "0.9973 uncertified");
}

}  // namespace
}  // namespace sntrust
