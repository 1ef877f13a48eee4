#include "graph/stats.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/frontier_bfs.hpp"

namespace sntrust {

DegreeStats degree_stats(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("degree_stats: empty graph");
  DegreeStats out;
  std::vector<VertexId> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = g.degree_unchecked(v);
  out.min = *std::min_element(degrees.begin(), degrees.end());
  out.max = *std::max_element(degrees.begin(), degrees.end());
  out.mean = 2.0 * static_cast<double>(g.num_edges()) / n;
  std::vector<VertexId> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  out.median = n % 2 == 1 ? sorted[n / 2]
                          : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
  out.histogram.assign(static_cast<std::size_t>(out.max) + 1, 0);
  for (const VertexId d : degrees) ++out.histogram[d];
  return out;
}

double average_local_clustering(const Graph& g) {
  const VertexId n = g.num_vertices();
  if (n == 0) return 0.0;
  double total = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors_unchecked(v);
    const std::size_t d = nbrs.size();
    if (d < 2) continue;
    std::uint64_t links = 0;
    for (std::size_t i = 0; i < d; ++i) {
      const auto ni = g.neighbors_unchecked(nbrs[i]);
      for (std::size_t j = i + 1; j < d; ++j)
        if (std::binary_search(ni.begin(), ni.end(), nbrs[j])) ++links;
    }
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(d) * (static_cast<double>(d) - 1.0));
  }
  return total / n;
}

double degree_assortativity(const Graph& g) {
  // Newman's formulation over directed edge endpoints (each undirected edge
  // contributes both orientations):
  //   r = [M^-1 sum j_i k_i - (M^-1 sum (j_i + k_i)/2)^2]
  //       / [M^-1 sum (j_i^2 + k_i^2)/2 - (M^-1 sum (j_i + k_i)/2)^2]
  if (g.num_edges() == 0) return 0.0;
  double sum_products = 0.0;
  double sum_half = 0.0;
  double sum_half_squares = 0.0;
  std::uint64_t m = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const double du = g.degree_unchecked(u);
    for (const VertexId w : g.neighbors(u)) {
      if (w <= u) continue;
      const double dw = g.degree_unchecked(w);
      sum_products += du * dw;
      sum_half += 0.5 * (du + dw);
      sum_half_squares += 0.5 * (du * du + dw * dw);
      ++m;
    }
  }
  const double inv = 1.0 / static_cast<double>(m);
  const double mean = inv * sum_half;
  const double numerator = inv * sum_products - mean * mean;
  const double denominator = inv * sum_half_squares - mean * mean;
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::uint32_t double_sweep_diameter(const Graph& g, VertexId hint) {
  if (g.num_vertices() == 0) return 0;
  FrontierBfs runner{g};
  const BfsResult& first = runner.run(hint);
  // Farthest reached vertex from the hint.
  VertexId far = hint;
  std::uint32_t best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t d = first.distances[v];
    if (d != kUnreachable && d > best) { best = d; far = v; }
  }
  const BfsResult& second = runner.run(far);
  return std::max(best, second.eccentricity);
}

}  // namespace sntrust
