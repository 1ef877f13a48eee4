// Immutable compressed-sparse-row representation of a simple undirected
// unweighted graph — the graph model of Sec. III-A of the paper.
//
// Vertices are dense ids 0..n-1. Each undirected edge {u,v} is stored twice
// (once in each endpoint's adjacency span); adjacency spans are sorted, which
// lets neighbour tests run in O(log deg) and makes iteration order
// deterministic.
//
// Storage is decoupled from the view: a Graph either owns its CSR arrays
// (built from vectors, fully validated) or adopts externally owned memory —
// the zero-copy mmap snapshot path (graph/snapshot.hpp), where a keepalive
// handle pins the mapping for the graph's lifetime and integrity comes from
// the snapshot CRC instead of the O(m log deg) structural validation.
// Copies are shallow: they share the storage and the cached structural
// fingerprint, so passing a Graph by value is cheap and never duplicates a
// multi-GB adjacency.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace sntrust {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;

/// An undirected edge as an unordered pair; builders normalize u <= v.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct GraphAux;  // internal per-graph cache block (graph.cpp)

class Graph {
 public:
  /// Empty graph (0 vertices).
  Graph();

  /// Builds from CSR arrays. `offsets` has n+1 entries; `targets[offsets[v] ..
  /// offsets[v+1])` are v's neighbours, sorted ascending. Validated; throws
  /// std::invalid_argument on malformed input (unsorted spans, self loops,
  /// duplicate neighbours, asymmetric adjacency, out-of-range targets).
  Graph(std::vector<EdgeIndex> offsets, std::vector<VertexId> targets);

  /// Zero-copy view over externally owned CSR arrays; `keepalive` pins the
  /// backing memory (an mmap) for the graph's lifetime. `deep_validate`
  /// runs the full structural validation; snapshot loads pass false and
  /// rely on the format CRC, so only the O(1) header invariants are checked
  /// (throws std::invalid_argument when they fail).
  static Graph adopt(std::span<const EdgeIndex> offsets,
                     std::span<const VertexId> targets,
                     std::shared_ptr<const void> keepalive,
                     bool deep_validate = false);

  /// Number of vertices n.
  VertexId num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges m.
  EdgeIndex num_edges() const noexcept { return targets_.size() / 2; }

  /// deg(v). Precondition: v < num_vertices().
  VertexId degree(VertexId v) const {
    check_vertex(v);
    return degree_unchecked(v);
  }

  /// Sorted neighbour span of v. Precondition: v < num_vertices().
  std::span<const VertexId> neighbors(VertexId v) const {
    check_vertex(v);
    return neighbors_unchecked(v);
  }

  /// Unchecked accessors for O(m·t) inner loops: the precondition is an
  /// assert in debug builds and undefined behaviour in release. API
  /// boundaries keep the checked versions.
  VertexId degree_unchecked(VertexId v) const noexcept {
    assert(v < num_vertices());
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }
  std::span<const VertexId> neighbors_unchecked(VertexId v) const noexcept {
    assert(v < num_vertices());
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

  /// True when {u,v} is an edge. O(log deg(u)).
  bool has_edge(VertexId u, VertexId v) const;

  /// All undirected edges, each once with u < v, in ascending order.
  std::vector<Edge> edges() const;

  /// Raw CSR arrays (for serialization and operators that walk the whole
  /// adjacency structure in one pass). Spans stay valid for the lifetime of
  /// any Graph sharing this storage.
  std::span<const EdgeIndex> offsets() const noexcept { return offsets_; }
  std::span<const VertexId> targets() const noexcept { return targets_; }

  /// Structural equality (same CSR contents, regardless of storage backend).
  friend bool operator==(const Graph& a, const Graph& b);

  /// Structural fingerprint (splitmix64 chain over sizes + CSR contents) —
  /// the value exec::graph_fingerprint keys checkpoints with. Computed once
  /// and cached across copies; snapshot loads seed the cache from the
  /// verified header so a mapped multi-GB graph never pays the O(n + m)
  /// rescan, and checkpoints key identically across the parse and mmap
  /// load paths.
  std::uint64_t fingerprint() const;
  std::optional<std::uint64_t> cached_fingerprint() const;
  void set_cached_fingerprint(std::uint64_t fingerprint) const;

 private:
  Graph(std::span<const EdgeIndex> offsets, std::span<const VertexId> targets,
        std::shared_ptr<const void> storage, bool deep_validate);

  void check_vertex(VertexId v) const;
  void validate() const;
  void validate_header() const;

  std::span<const EdgeIndex> offsets_;
  std::span<const VertexId> targets_;
  std::shared_ptr<const void> storage_;  ///< owns vectors or pins an mmap
  std::shared_ptr<GraphAux> aux_;        ///< fingerprint cache
};

}  // namespace sntrust
