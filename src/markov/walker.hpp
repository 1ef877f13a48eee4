// Monte-Carlo random walks and SybilLimit-style random *routes*.
//
// Routes differ from walks: each node fixes a random permutation between its
// incident edges, so a route entering through edge e always leaves through
// perm(e). Routes are back-traceable and convergent — the property the
// defense protocol relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace sntrust::obs {
class Counter;
}

namespace sntrust {

/// Simple random walk sampler. Instances are cheap to construct (parallel
/// sweeps build one per work item for deterministic per-index streams) but
/// not shareable across threads: walks mutate the internal Rng.
class RandomWalker {
 public:
  RandomWalker(const Graph& g, std::uint64_t seed);

  /// Walks `length` steps from `start`; returns the full vertex sequence
  /// (length + 1 entries). Throws std::invalid_argument if start is isolated.
  std::vector<VertexId> walk(VertexId start, std::uint32_t length);

  /// Endpoint of a `length`-step walk (no trajectory allocation).
  VertexId walk_endpoint(VertexId start, std::uint32_t length);

 private:
  const Graph& graph_;
  Rng rng_;
  /// Member metric handle (not a function-local static): walkers run on
  /// pool workers, so the registry lookup happens once per instance on the
  /// constructing thread instead of racing on first-use initialization.
  obs::Counter* walk_steps_;
};

/// Route follower over *implicit* routing tables: instance i's permutation at
/// vertex v is a keyed PRP over v's incident-edge slots, evaluated on demand.
/// This is how SybilLimit's r = sqrt(m) independent routing-table instances
/// are realized without O(r * m) memory.
class HashedRoutes {
 public:
  HashedRoutes(const Graph& g, std::uint64_t seed)
      : graph_(g), seed_(seed) {}

  /// Vertices of instance `instance`'s route from `start` leaving through
  /// `first_slot`, for `length` edges.
  std::vector<VertexId> route(VertexId start, std::uint32_t first_slot,
                              std::uint32_t length,
                              std::uint32_t instance) const;

  /// Final directed edge of the route (SybilLimit's "tail").
  std::pair<VertexId, VertexId> route_tail(VertexId start,
                                           std::uint32_t first_slot,
                                           std::uint32_t length,
                                           std::uint32_t instance) const;

  const Graph& graph() const noexcept { return graph_; }

 private:
  std::uint32_t out_slot(VertexId v, std::uint32_t in_slot,
                         std::uint32_t instance) const;

  const Graph& graph_;
  std::uint64_t seed_;
};

}  // namespace sntrust
