#include "markov/transition.hpp"

#include <stdexcept>

#include "markov/lane_block.hpp"

namespace sntrust {

// Both steps are the 1-lane instantiation of the lane-block kernel
// (markov/lane_block.hpp): one pre-divide per vertex, then a row-partitioned
// gather in CSR order, so out[v] sums the shares arriving from v's
// neighbours in adjacency order and the result does not depend on the
// chunking.

void step_distribution(const Graph& g, const Distribution& p,
                       Distribution& out) {
  const VertexId n = g.num_vertices();
  if (p.size() != n)
    throw std::invalid_argument("step_distribution: size mismatch");
  if (&p == &out)
    throw std::invalid_argument("step_distribution: out must not alias p");
  out.resize(n);
  double* const dst = out.data();
  lanes::step_single(g, p.data(), [dst](std::size_t v, const double* acc) {
    dst[v] = acc[0];
  });
}

void step_distribution_lazy(const Graph& g, const Distribution& p,
                            Distribution& out) {
  const VertexId n = g.num_vertices();
  if (p.size() != n)
    throw std::invalid_argument("step_distribution_lazy: size mismatch");
  if (&p == &out)
    throw std::invalid_argument("step_distribution_lazy: out must not alias p");
  out.resize(n);
  // Lazy blend folded into the gather: one parallel row pass instead of a
  // gather followed by a second serial O(n) blend.
  const double* const src = p.data();
  double* const dst = out.data();
  lanes::step_single(g, src, [src, dst](std::size_t v, const double* acc) {
    dst[v] = 0.5 * acc[0] + 0.5 * src[v];
  });
}

void evolve(const Graph& g, Distribution& p, std::uint32_t steps, bool lazy) {
  Distribution buffer(p.size());
  for (std::uint32_t s = 0; s < steps; ++s) {
    if (lazy) step_distribution_lazy(g, p, buffer);
    else step_distribution(g, p, buffer);
    p.swap(buffer);
  }
}

}  // namespace sntrust
