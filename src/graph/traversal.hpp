// Breadth-first traversal primitives shared by the expansion, diameter and
// defense modules.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// Sentinel distance for vertices unreachable from the BFS source.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// Result of a single-source BFS.
struct BfsResult {
  VertexId source = 0;
  /// dist[v] = hop distance from source, or kUnreachable.
  std::vector<std::uint32_t> distances;
  /// level_sizes[i] = number of vertices at distance exactly i (L_i in the
  /// paper's Eq. 4); level_sizes[0] == 1.
  std::vector<std::uint64_t> level_sizes;
  /// Eccentricity of the source within its component (= level count - 1).
  std::uint32_t eccentricity = 0;
  /// Number of vertices reached (including the source).
  std::uint64_t reached = 0;
};

/// Full BFS from `source`. Throws std::out_of_range for a bad source. To
/// sweep many sources over one graph, reuse a FrontierBfs
/// (graph/frontier_bfs.hpp) instead: it allocates its arrays once.
BfsResult bfs(const Graph& g, VertexId source);

}  // namespace sntrust
