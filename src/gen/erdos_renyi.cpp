#include <cmath>
#include <stdexcept>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

/// Inverts an upper-triangular pair index idx in [0, n(n-1)/2) to the pair
/// (u, v) with u < v, where row u holds pairs (u, u+1..n-1).
Edge pair_from_index(VertexId n, std::uint64_t idx) {
  const double nd = n;
  auto cum = [&](std::uint64_t x) {
    return x * static_cast<std::uint64_t>(n) - x - x * (x - 1) / 2;
  };
  double ud = nd - 0.5 -
              std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * static_cast<double>(idx));
  auto u = static_cast<std::uint64_t>(std::max(0.0, ud));
  while (u > 0 && cum(u) > idx) --u;
  while (cum(u + 1) <= idx) ++u;
  const std::uint64_t v = u + 1 + (idx - cum(u));
  return {static_cast<VertexId>(u), static_cast<VertexId>(v)};
}

}  // namespace

Graph erdos_renyi(VertexId n, double p, std::uint64_t seed) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("erdos_renyi: p must be in [0,1]");
  GraphBuilder builder{n};
  if (n < 2 || p == 0.0) return builder.build();

  Rng rng{seed};
  if (p == 1.0) {
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = u + 1; v < n; ++v) builder.add_edge(u, v);
    return builder.build();
  }

  // Batagelj–Brandes geometric skipping over the pair index space: expected
  // O(n + m) instead of O(n^2).
  const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  std::uint64_t idx = rng.geometric(p);
  while (idx < total) {
    const Edge e = pair_from_index(n, idx);
    builder.add_edge(e.u, e.v);
    idx += 1 + rng.geometric(p);
  }
  return builder.build();
}

}  // namespace sntrust
