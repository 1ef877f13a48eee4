#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sntrust {

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_)
    throw std::out_of_range("GraphBuilder::add_edge: endpoint out of range");
  if (u == v) return;
  if (u > v) std::swap(u, v);
  pairs_.push_back({u, v});
}

Graph GraphBuilder::build() const {
  std::vector<Edge> edges = pairs_;
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const VertexId n = num_vertices_;
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> targets(edges.size() * 2);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    targets[cursor[e.u]++] = e.v;
    targets[cursor[e.v]++] = e.u;
  }
  // Each span was filled in ascending edge order for the u side but the v
  // side interleaves, so sort every span (spans are short; total O(m log d)).
  for (VertexId v = 0; v < n; ++v)
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));

  return Graph{std::move(offsets), std::move(targets)};
}

}  // namespace sntrust
