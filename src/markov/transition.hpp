// The random-walk transition operator P (Eq. 1) applied to distribution
// vectors, without ever materializing the n x n matrix.
#pragma once

#include "graph/graph.hpp"
#include "markov/distribution.hpp"

namespace sntrust {

/// The chain variant a step applies; the write expressions mirror the dense
/// kernels in transition.cpp / modulated.cpp verbatim. (Consumed by the
/// frontier-sparse kernels and the lane blocks alike.)
enum class StepKind {
  kPlain,      ///< out_v = (pP)_v
  kLazy,       ///< out_v = 0.5 (pP)_v + 0.5 p_v
  kModulated,  ///< out_v = alpha p_v + (1 - alpha) (pP)_v
};

/// Applies one step of the simple random walk: out_w = sum_{v ~ w} p_v/deg(v).
/// `out` is resized and overwritten; `out` must not alias `p`.
void step_distribution(const Graph& g, const Distribution& p,
                       Distribution& out);

/// Lazy-walk step: out = 1/2 p + 1/2 pP. The lazy chain is aperiodic on any
/// connected graph, which the spectral machinery relies on for bipartite-ish
/// inputs.
void step_distribution_lazy(const Graph& g, const Distribution& p,
                            Distribution& out);

/// Evolves `p` for `steps` simple-walk steps in place (double buffering).
void evolve(const Graph& g, Distribution& p, std::uint32_t steps,
            bool lazy = false);

}  // namespace sntrust
