// Dense (cyclic Jacobi) eigendecomposition of the normalized adjacency
// operator for small graphs — the exact oracle behind the iterative
// machinery: tests check the Lanczos SLEM's bracket and lambda_2 vector
// against it, and the full decomposition yields the *exact* walk distribution at any t
// (P^t via the spectral expansion), pinning the sampling-method TVD curves.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"

namespace sntrust {

struct DenseSpectrum {
  /// Eigenvalues of N = D^{-1/2} A D^{-1/2}, descending.
  std::vector<double> eigenvalues;
  /// eigenvectors[k] = unit eigenvector of eigenvalues[k] (in N-space).
  std::vector<std::vector<double>> eigenvectors;
};

/// Full eigendecomposition by cyclic Jacobi rotations. O(n^3) per sweep —
/// intended for n <= 256 (throws std::invalid_argument beyond that).
/// Requires >= 1 edge.
DenseSpectrum dense_spectrum(const Graph& g, std::uint32_t max_sweeps = 64);

/// Exact t-step walk distribution from `source` computed through the
/// spectral expansion of P = D^{-1/2} N D^{1/2} (no repeated matvecs, exact
/// up to the decomposition's accuracy).
Distribution exact_walk_distribution(const Graph& g,
                                     const DenseSpectrum& spectrum,
                                     VertexId source, std::uint32_t steps);

/// Exact SLEM from the dense spectrum: max(|lambda_2|, |lambda_n|).
double exact_slem(const DenseSpectrum& spectrum);

}  // namespace sntrust
