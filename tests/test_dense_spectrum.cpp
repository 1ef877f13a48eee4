#include "markov/dense_spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "markov/transition.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::two_cliques;

/// The oracle's graphs: the fixture graphs, one where lambda_n sets mu
/// and lambda_2's end converges last, and 48 generated ones with
/// 40 <= n <= 128 (largest components).
std::vector<Graph> oracle_graphs() {
  std::vector<Graph> graphs{
      petersen_graph(),  two_cliques(6),
      cycle_graph(9),    cycle_graph(12),
      complete_graph(8), path_graph(40),
      testing::barbell_graph(),
      largest_component(barabasi_albert(148, 3, 6)).graph};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto n = static_cast<VertexId>(32 + 8 * seed);
    const auto m = static_cast<VertexId>(2 + seed % 3);
    for (Graph g : {erdos_renyi(n, 6.0 / n, seed),
                    barabasi_albert(n, m, seed),
                    planted_partition(n, 2 + seed % 4, 0.3, 0.01, seed),
                    powerlaw_cluster(n, m, 0.5, seed)})
      graphs.push_back(largest_component(g).graph);
  }
  return graphs;
}

TEST(DenseSpectrum, CompleteGraphEigenvalues) {
  const DenseSpectrum s = dense_spectrum(complete_graph(6));
  ASSERT_EQ(s.eigenvalues.size(), 6u);
  EXPECT_NEAR(s.eigenvalues[0], 1.0, 1e-10);
  for (std::size_t k = 1; k < 6; ++k)
    EXPECT_NEAR(s.eigenvalues[k], -1.0 / 5.0, 1e-10);
}

TEST(DenseSpectrum, PetersenEigenvalues) {
  const DenseSpectrum s = dense_spectrum(petersen_graph());
  EXPECT_NEAR(s.eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(s.eigenvalues[1], 1.0 / 3.0, 1e-10);
  EXPECT_NEAR(s.eigenvalues.back(), -2.0 / 3.0, 1e-10);
}

TEST(DenseSpectrum, EigenvaluesSumToTraceZero) {
  // N has zero diagonal, so the eigenvalues sum to 0.
  const Graph g = testing::barbell_graph();
  const DenseSpectrum s = dense_spectrum(g);
  double sum = 0.0;
  for (const double value : s.eigenvalues) sum += value;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(DenseSpectrum, EigenvectorsOrthonormal) {
  const DenseSpectrum s = dense_spectrum(cycle_graph(9));
  for (std::size_t a = 0; a < s.eigenvectors.size(); ++a) {
    for (std::size_t b = a; b < s.eigenvectors.size(); ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < s.eigenvectors[a].size(); ++i)
        dot += s.eigenvectors[a][i] * s.eigenvectors[b][i];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(DenseSpectrum, ExactSlemInsideBracket) {
  // The exact SLEM lies in the solver's certified bracket, up to the
  // rounding of the two computations.
  for (const Graph& g : oracle_graphs()) {
    const double exact = exact_slem(dense_spectrum(g));
    const SlemResult slem = second_largest_eigenvalue(g);
    EXPECT_TRUE(slem.certified);
    EXPECT_GE(exact, slem.lo - 1e-12) << "n=" << g.num_vertices();
    EXPECT_LE(exact, slem.hi + 1e-12) << "n=" << g.num_vertices();
  }
}

TEST(DenseSpectrum, LanczosMatchesDenseTopEigenvalues) {
  // The solver's lambda_2 matches the dense one, also where lambda_n sets
  // mu, and where lambda_2 is simple its vector, mapped back to N's space,
  // is parallel to the dense eigenvector.
  std::size_t graphs = 0, simple = 0;
  for (const Graph& g : oracle_graphs()) {
    ++graphs;
    const DenseSpectrum dense = dense_spectrum(g);
    const std::vector<double>& eigenvalues = dense.eigenvalues;
    const SlemResult slem = second_largest_eigenvalue(g);
    EXPECT_NEAR(slem.lambda2, eigenvalues[1], kSlemBracketWidth);
    if (eigenvalues.size() < 3 || eigenvalues[1] - eigenvalues[2] < 1e-3)
      continue;
    ++simple;
    double dot = 0.0, norm_sq = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const double y = slem.lambda2_vector[v] *
                       std::sqrt(static_cast<double>(g.degree(v)));
      dot += y * dense.eigenvectors[1][v];
      norm_sq += y * y;
    }
    EXPECT_GT(std::fabs(dot) / std::sqrt(norm_sq), 1.0 - 1e-6)
        << "n=" << g.num_vertices();
  }
  EXPECT_GE(2 * simple, graphs);
}

TEST(DenseSpectrum, ExactWalkDistributionMatchesEvolution) {
  // The spectral expansion of P^t must agree with explicit matvec
  // evolution at every step — this pins the entire mixing pipeline.
  const Graph g = largest_component(barabasi_albert(60, 3, 9)).graph;
  const DenseSpectrum s = dense_spectrum(g);
  for (const std::uint32_t t : {0u, 1u, 3u, 10u, 25u}) {
    const Distribution exact = exact_walk_distribution(g, s, 0, t);
    Distribution evolved = dirac(g.num_vertices(), 0);
    evolve(g, evolved, t);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(exact[v], evolved[v], 1e-8) << "t=" << t << " v=" << v;
  }
}

TEST(DenseSpectrum, SamplingMethodCurveMatchesExactTvd) {
  const Graph g = testing::barbell_graph();
  const DenseSpectrum s = dense_spectrum(g);
  const Distribution pi = stationary_distribution(g);
  MixingOptions options;
  options.num_sources = 6;  // all vertices
  options.max_walk_length = 20;
  const MixingCurves curves = measure_mixing(g, options);
  for (std::size_t i = 0; i < curves.sources.size(); ++i) {
    for (const std::uint32_t t : {0u, 5u, 20u}) {
      const Distribution exact =
          exact_walk_distribution(g, s, curves.sources[i], t);
      EXPECT_NEAR(curves.tvd[i][t], total_variation(exact, pi), 1e-8);
    }
  }
}

TEST(DenseSpectrum, TooLargeThrows) {
  EXPECT_THROW(dense_spectrum(erdos_renyi(300, 0.05, 1)),
               std::invalid_argument);
  GraphBuilder b{3};
  EXPECT_THROW(dense_spectrum(b.build()), std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
