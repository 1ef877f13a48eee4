// Community structure tooling (paper Sec. II discussion: Viswanath et al.
// showed walk-based Sybil defenses are sensitive to community structure and
// reduce to community detection around the trusted node).
//
// Provides: a spectral (Fiedler-ordering) conductance sweep and the Cheeger
// bounds that tie it to the spectral gap.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// Approximate Fiedler vector (second eigenvector of the normalized
/// Laplacian) by power iteration with deflation; returns per-vertex values.
std::vector<double> fiedler_vector(const Graph& g,
                                   std::uint32_t max_iterations = 1500,
                                   std::uint64_t seed = 7);

/// Sweep cut: order vertices by Fiedler value and return the minimum
/// conductance over all prefixes (the spectral partitioning heuristic).
struct SweepResult {
  double best_conductance = 1.0;
  std::uint64_t best_prefix = 0;     ///< |S| at the minimum
  std::vector<double> curve;         ///< conductance per prefix size
};
SweepResult conductance_sweep(const Graph& g,
                              const std::vector<double>& ordering_values);

/// Cheeger's inequality: phi^2 / 2 <= 1 - lambda_2 <= 2 * phi, i.e. the
/// spectral gap brackets the conductance. Given a measured lambda_2 (of the
/// normalized adjacency), returns the implied [lower, upper] bounds on the
/// graph's conductance — the bridge between the paper's spectral (Table I)
/// and community (Sec. V) views.
struct CheegerBounds {
  double lower = 0.0;  ///< (1 - lambda_2) / 2
  double upper = 1.0;  ///< sqrt(2 * (1 - lambda_2))
};
/// Preconditions: lambda_2 in [-1, 1].
CheegerBounds cheeger_bounds(double lambda_2);

}  // namespace sntrust
