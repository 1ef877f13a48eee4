#include "markov/dense_spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/lanczos.hpp"
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

TEST(DenseSpectrum, ExactSlemMatchesPowerIteration) {
  for (const Graph& g :
       {petersen_graph(), two_cliques(6), cycle_graph(9),
        largest_component(barabasi_albert(80, 3, 5)).graph}) {
    const double exact = exact_slem(dense_spectrum(g));
    const double iterative = second_largest_eigenvalue(g).mu;
    EXPECT_NEAR(exact, iterative, 1e-5);
  }
}

TEST(DenseSpectrum, LanczosMatchesDenseTopEigenvalues) {
  const Graph g = largest_component(barabasi_albert(100, 3, 7)).graph;
  const DenseSpectrum dense = dense_spectrum(g);
  LanczosOptions options;
  options.num_eigenvalues = 4;
  options.subspace = 60;
  const LanczosResult lanczos = lanczos_spectrum(g, options);
  for (std::size_t k = 0; k < lanczos.eigenvalues.size(); ++k)
    EXPECT_NEAR(lanczos.eigenvalues[k], dense.eigenvalues[k], 1e-6)
        << "eigenvalue " << k;
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
