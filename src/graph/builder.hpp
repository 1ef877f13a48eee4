// Mutable edge-list accumulator that produces an immutable CSR Graph.
//
// The builder enforces the paper's graph model: self loops are dropped and
// parallel edges are collapsed, so the result is always simple, undirected
// and unweighted regardless of what the caller feeds in.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex universe 0..n-1 up front.
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  VertexId num_vertices() const noexcept { return num_vertices_; }

  /// Records the undirected edge {u,v}. Self loops (u==v) are silently
  /// ignored; duplicates are collapsed at build() time. Throws
  /// std::out_of_range if an endpoint is >= num_vertices().
  void add_edge(VertexId u, VertexId v);

  /// Reserve capacity for `edges` undirected edges.
  void reserve(std::size_t edges) { pairs_.reserve(edges); }

  /// Number of (deduplicated-later) edge records so far.
  std::size_t pending_edges() const noexcept { return pairs_.size(); }

  /// Produces the CSR graph. The builder may be reused afterwards (it keeps
  /// its edge list).
  Graph build() const;

 private:
  VertexId num_vertices_;
  std::vector<Edge> pairs_;  // normalized u < v
};

}  // namespace sntrust
