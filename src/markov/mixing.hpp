// The sampling method for measuring mixing time (paper Sec. III-C):
// evolve the exact walk distribution pi^{(i)} P^t from sampled source
// vertices i and record the total variation distance to the stationary
// distribution at each step.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"
#include "markov/frontier.hpp"

namespace sntrust {

struct MixingOptions {
  /// Number of source vertices sampled uniformly at random (the paper uses
  /// 100). Each source walks its own frontier-sparse kernel until its
  /// support saturates; from then on the sources of a lane group share one
  /// O(m) CSR pass per step. A lane block of up to kLaneBlockWidth sources
  /// holds one group per pool worker plus one.
  std::uint32_t num_sources = 100;
  /// Maximum walk length to evolve.
  std::uint32_t max_walk_length = 100;
  /// Use the lazy chain (I + P)/2; keeps the TVD series monotone and handles
  /// near-bipartite graphs. The paper's plots use the plain chain.
  bool lazy = false;
  std::uint64_t seed = 1;
  /// Dense crossover of the pre-saturation steps as a fraction of 2m
  /// (FrontierWalk::Options::dense_fraction). 0 forces dense gathers from
  /// the first step, +infinity keeps the sparse pull until the support
  /// saturates. Every value gives bitwise-identical curves; it only trades
  /// bookkeeping for touched edges.
  double kernel_dense_fraction = 0.5;
};

/// TVD-vs-walk-length curves for a set of sources.
struct MixingCurves {
  std::vector<VertexId> sources;
  /// tvd[s][t] = || pi - pi^{(sources[s])} P^t ||_tv, t in [0, max_len].
  std::vector<std::vector<double>> tvd;

  /// Mean TVD over sources at step t.
  std::vector<double> mean_curve() const;
  /// Max TVD over sources at step t (the max_i of Eq. 2 restricted to the
  /// sampled sources).
  std::vector<double> max_curve() const;
};

/// Measures TVD curves from sampled sources. Requires a connected graph with
/// at least one edge (throws std::invalid_argument otherwise).
MixingCurves measure_mixing(const Graph& g, const MixingOptions& options);

/// Smallest t with max-over-sources TVD <= epsilon, or nullopt-like
/// UINT32_MAX when the curve never drops below epsilon within max_walk_length.
std::uint32_t mixing_time_estimate(const MixingCurves& curves, double epsilon);

}  // namespace sntrust
