// Direction-optimizing breadth-first search (Beamer-style): level-synchronous
// BFS that processes each level either top-down (scan the frontier's
// adjacency) or bottom-up (scan the remaining unvisited vertices and stop at
// the first frontier neighbour). On the low-diameter social graphs this repo
// measures, the middle levels hold most of the graph, and the bottom-up pass
// skips the bulk of their edges — the expansion envelopes (Eq. 4), the
// diameter sweeps, and GateKeeper's per-distributer ticket BFS all run one
// BFS per source over the whole graph.
//
// The switch only changes which edges are *inspected*: discovered distances,
// level sizes, eccentricity, and reach counts are level-synchronous
// invariants, so results are identical to the plain queue BFS for any
// heuristic setting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/traversal.hpp"

namespace sntrust {

/// Reusable direction-optimizing BFS workspace. Construction is O(n); every
/// run() reuses the epoch-marked arrays, so sweeping many sources costs no
/// allocations after the first run.
class FrontierBfs {
 public:
  struct Options {
    /// Switch a level to bottom-up when the frontier's summed degree exceeds
    /// (unexplored degree) / alpha. Beamer's alpha = 14; large values force
    /// bottom-up, 0 disables it (always top-down).
    std::uint64_t alpha = 14;
    /// Switch back to top-down when the frontier shrinks below n / beta.
    /// Beamer's beta = 24; large values keep bottom-up until exhaustion.
    std::uint64_t beta = 24;
  };

  explicit FrontierBfs(const Graph& g);
  FrontierBfs(const Graph& g, const Options& options);

  /// Runs BFS from `source`; the returned reference is invalidated by the
  /// next run() call. Throws std::out_of_range for a bad source.
  const BfsResult& run(VertexId source);

 private:
  bool want_bottom_up(bool bottom_up) const;
  void ensure_unvisited_list();
  void top_down_level(std::uint32_t depth);
  void bottom_up_level(std::uint32_t depth);

  const Graph& graph_;
  Options options_;
  std::vector<std::uint32_t> epoch_seen_;  // epoch marking instead of reset
  std::uint32_t epoch_ = 0;
  std::vector<VertexId> frontier_, next_frontier_;
  /// Superset of the unvisited vertices, ascending; materialized lazily on
  /// the first bottom-up level of a run and compacted as levels claim
  /// vertices.
  std::vector<VertexId> unvisited_;
  bool unvisited_valid_ = false;
  EdgeIndex frontier_degree_ = 0;    // summed degree of the frontier
  EdgeIndex unexplored_degree_ = 0;  // summed degree of unvisited vertices
  BfsResult result_;
};

}  // namespace sntrust
