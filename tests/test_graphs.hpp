// Shared fixture graphs for the test suite.
#pragma once

#include <vector>

#include "dynamic/evolution.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace sntrust::testing {

/// Path 0-1-2-...-(n-1).
inline Graph path_graph(VertexId n) {
  GraphBuilder b{n};
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

/// Cycle on n vertices.
inline Graph cycle_graph(VertexId n) {
  GraphBuilder b{n};
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

/// Star: center 0 connected to 1..n-1.
inline Graph star_graph(VertexId n) {
  GraphBuilder b{n};
  for (VertexId v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

/// Complete graph K_n.
inline Graph complete_graph(VertexId n) {
  GraphBuilder b{n};
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return b.build();
}

/// Two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3. The classic
/// bad-expansion, two-community graph.
inline Graph barbell_graph() {
  GraphBuilder b{6};
  b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 2);
  b.add_edge(3, 4); b.add_edge(4, 5); b.add_edge(3, 5);
  b.add_edge(2, 3);
  return b.build();
}

/// Two K_c cliques joined by a single bridge edge.
inline Graph two_cliques(VertexId c) {
  GraphBuilder b{static_cast<VertexId>(2 * c)};
  for (VertexId u = 0; u < c; ++u)
    for (VertexId v = u + 1; v < c; ++v) {
      b.add_edge(u, v);
      b.add_edge(c + u, c + v);
    }
  b.add_edge(c - 1, c);
  return b.build();
}

/// The Petersen graph: 3-regular, vertex-transitive, a known good expander.
inline Graph petersen_graph() {
  GraphBuilder b{10};
  // Outer 5-cycle, inner 5-star-cycle, spokes.
  for (VertexId v = 0; v < 5; ++v) {
    b.add_edge(v, (v + 1) % 5);
    b.add_edge(5 + v, 5 + (v + 2) % 5);
    b.add_edge(v, 5 + v);
  }
  return b.build();
}

/// Disconnected graph: triangle {0,1,2}, edge {3,4}, isolated 5.
inline Graph disconnected_graph() {
  GraphBuilder b{6};
  b.add_edge(0, 1); b.add_edge(1, 2); b.add_edge(0, 2);
  b.add_edge(3, 4);
  return b.build();
}

/// An edge batch shaped like the e2e churn workload's: `leaves` new
/// vertices, each joined to a random vertex, and up to `removals` removed
/// edges that each close a triangle. The triangles share no vertex, so the
/// graph stays connected.
inline EdgeBatch churn_batch(const Graph& g, Rng& rng, VertexId leaves,
                             std::size_t removals) {
  EdgeBatch batch;
  const VertexId n = g.num_vertices();
  for (VertexId j = 0; j < leaves; ++j)
    batch.insertions.push_back({static_cast<VertexId>(rng.uniform(n)), n + j});
  std::vector<std::uint8_t> used(n, 0);
  for (std::size_t attempt = 0;
       batch.removals.size() < removals && attempt < 1000 * removals;
       ++attempt) {
    const auto u = static_cast<VertexId>(rng.uniform(n));
    const std::span<const VertexId> u_adj = g.neighbors(u);
    if (used[u] || u_adj.empty()) continue;
    const VertexId w = u_adj[rng.uniform(u_adj.size())];
    if (used[w]) continue;
    for (const VertexId x : g.neighbors(w)) {
      if (x == u || used[x] || !g.has_edge(u, x)) continue;
      used[u] = used[w] = used[x] = 1;
      batch.removals.push_back({u, w});
      break;
    }
  }
  return batch;
}

}  // namespace sntrust::testing
