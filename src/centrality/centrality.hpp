// Shortest-path betweenness, used by the trustworthy-computing primitives
// the paper's introduction surveys: the Sybil defense of Quercia & Hailes,
// the authors' own betweenness measurement study, and SimBet's DTN routing.
//
// Exact computation is Brandes' algorithm, O(nm); for large graphs it
// supports uniform source sampling with the standard unbiased rescaling.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

struct CentralityOptions {
  /// Number of BFS sources; 0 = every vertex (exact).
  std::uint32_t num_sources = 0;
  std::uint64_t seed = 1;
};

/// Shortest-path betweenness of every vertex (unnormalized pair counts;
/// each unordered pair counted once). Sampled when num_sources > 0, with
/// results rescaled by n / num_sources so sampled values estimate the exact
/// ones.
std::vector<double> betweenness_centrality(const Graph& g,
                                           const CentralityOptions& options = {});

/// Normalizes betweenness to [0, 1] by dividing by (n-1)(n-2)/2 (the
/// maximum attainable, the star hub). Precondition: n >= 3.
std::vector<double> normalize_betweenness(std::vector<double> values,
                                          VertexId n);

}  // namespace sntrust
