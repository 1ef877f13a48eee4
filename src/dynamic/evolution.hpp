// Dynamic social graphs (the paper's Sec.-VI open problem): how do the
// measured properties evolve as a social graph grows?
//
// An EvolvingGraph replays a growth process (any generator expressed as an
// ordered edge stream) and materializes snapshots at chosen vertex counts;
// measure_evolution() runs the property suite on every snapshot so the
// long-term trends of mu, core structure and expansion can be examined.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// A growth trace: vertices appear in id order; edge i is added at step i.
/// Edges must be simple after deduplication (the snapshot builder dedups).
class GrowthTrace {
 public:
  GrowthTrace(VertexId final_vertices, std::vector<Edge> edges);

  VertexId final_vertices() const noexcept { return final_vertices_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Snapshot containing exactly the first `num_vertices` vertices and
  /// every edge among them that has appeared in the stream. Throws
  /// std::invalid_argument when num_vertices exceeds the final count.
  Graph snapshot(VertexId num_vertices) const;

 private:
  VertexId final_vertices_;
  std::vector<Edge> edges_;
};

/// Growth trace of a preferential-attachment process (the BA model as an
/// explicit stream, so snapshots are exactly the BA graph at every size).
GrowthTrace preferential_attachment_trace(VertexId final_vertices,
                                          VertexId edges_per_node,
                                          std::uint64_t seed);

/// Growth trace of the regional affiliation (co-authorship) process: the
/// strict-trust class, growing one collaboration group at a time with the
/// actor universe expanding in proportion.
GrowthTrace affiliation_trace(VertexId final_vertices,
                              std::uint32_t regions,
                              double groups_per_actor,
                              std::uint64_t seed);

/// A batched structural delta — edges to insert and edges to remove, applied
/// together. The churn unit the serving layer's `apply_edges` consumes.
struct EdgeBatch {
  std::vector<Edge> insertions;
  std::vector<Edge> removals;
};

/// The graph after applying `batch` to `g`: the vertex universe grows to
/// cover every inserted endpoint, removals drop matching existing edges
/// (absent edges are ignored), and insertions dedup against the survivors.
/// A removal listed in the same batch as an insertion of the same pair wins.
/// Self loops are ignored. Each new row is merged in one pass from the old
/// row and the batch's sorted entries for it, and only the rows the batch
/// touched are validated (Graph::with_edited_rows), so the cost is a copy
/// of the CSR plus work in proportion to the touched rows. Returns a fresh
/// simple CSR graph; `g` itself is untouched (Graph is immutable).
Graph apply_edge_batch(const Graph& g, const EdgeBatch& batch);

/// Properties measured per snapshot (a compact subset of PropertyReport —
/// the quantities whose evolution the open problem asks about).
struct EvolutionPoint {
  VertexId snapshot_vertices = 0;  ///< requested snapshot size
  std::uint64_t nodes = 0;         ///< largest-component size measured
  std::uint64_t edges = 0;
  double mu = 0.0;
  bool mu_certified = false;       ///< SlemResult::certified
  std::uint32_t degeneracy = 0;
  std::uint32_t max_core_count = 0;
  double min_expansion_factor = 0.0;
};

struct EvolutionOptions {
  std::uint32_t expansion_sources = 400;
  std::uint64_t seed = 1;
};

/// Measures every requested snapshot (each reduced to its largest
/// component). Snapshot sizes must be ascending and >= 16.
std::vector<EvolutionPoint> measure_evolution(
    const GrowthTrace& trace, const std::vector<VertexId>& snapshot_sizes,
    const EvolutionOptions& options = {});

}  // namespace sntrust
