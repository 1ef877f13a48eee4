#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "community/community.hpp"

namespace sntrust {

CheegerBounds cheeger_bounds(double lambda_2) {
  if (lambda_2 < -1.0 - 1e-12 || lambda_2 > 1.0 + 1e-12)
    throw std::invalid_argument("cheeger_bounds: lambda_2 must be in [-1,1]");
  CheegerBounds bounds;
  const double gap = std::max(0.0, 1.0 - lambda_2);
  bounds.lower = gap / 2.0;
  bounds.upper = std::sqrt(2.0 * gap);
  return bounds;
}

SweepResult conductance_sweep(const Graph& g,
                              const std::vector<double>& ordering_values) {
  const VertexId n = g.num_vertices();
  if (ordering_values.size() != n)
    throw std::invalid_argument("conductance_sweep: values size mismatch");
  if (n < 2 || g.num_edges() == 0)
    throw std::invalid_argument("conductance_sweep: graph too small");

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return ordering_values[a] < ordering_values[b];
  });

  const std::uint64_t total_volume = g.targets().size();  // 2m
  std::vector<std::uint8_t> in_set(n, 0);
  std::uint64_t cut = 0;
  std::uint64_t vol = 0;

  SweepResult result;
  result.curve.reserve(n - 1);
  for (VertexId i = 0; i + 1 < n; ++i) {
    const VertexId v = order[i];
    in_set[v] = 1;
    vol += g.degree(v);
    // Adding v flips each incident edge: to-inside edges leave the cut,
    // to-outside edges join it.
    for (const VertexId w : g.neighbors(v)) {
      if (in_set[w]) --cut;
      else ++cut;
    }
    const std::uint64_t vol_other = total_volume - vol;
    const double phi =
        static_cast<double>(cut) /
        static_cast<double>(std::max<std::uint64_t>(1, std::min(vol, vol_other)));
    result.curve.push_back(phi);
    if (vol > 0 && vol_other > 0 && phi < result.best_conductance) {
      result.best_conductance = phi;
      result.best_prefix = i + 1;
    }
  }
  return result;
}

}  // namespace sntrust
