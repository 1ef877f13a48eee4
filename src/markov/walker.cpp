#include "markov/walker.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/prp.hpp"

namespace sntrust {

RandomWalker::RandomWalker(const Graph& g, std::uint64_t seed)
    : graph_(g),
      rng_(seed),
      walk_steps_(&obs::metrics_counter("walk.steps")) {}

std::vector<VertexId> RandomWalker::walk(VertexId start, std::uint32_t length) {
  if (start >= graph_.num_vertices())
    throw std::out_of_range("RandomWalker::walk: start out of range");
  if (graph_.degree(start) == 0)
    throw std::invalid_argument("RandomWalker::walk: isolated start vertex");
  std::vector<VertexId> trail;
  trail.reserve(length + 1);
  trail.push_back(start);
  VertexId at = start;
  for (std::uint32_t s = 0; s < length; ++s) {
    const auto nbrs = graph_.neighbors_unchecked(at);
    at = nbrs[rng_.uniform(nbrs.size())];
    trail.push_back(at);
  }
  walk_steps_->add(length);
  return trail;
}

VertexId RandomWalker::walk_endpoint(VertexId start, std::uint32_t length) {
  if (start >= graph_.num_vertices())
    throw std::out_of_range("RandomWalker::walk_endpoint: start out of range");
  if (graph_.degree(start) == 0)
    throw std::invalid_argument(
        "RandomWalker::walk_endpoint: isolated start vertex");
  VertexId at = start;
  for (std::uint32_t s = 0; s < length; ++s) {
    const auto nbrs = graph_.neighbors_unchecked(at);
    at = nbrs[rng_.uniform(nbrs.size())];
  }
  walk_steps_->add(length);
  return at;
}

std::uint32_t HashedRoutes::out_slot(VertexId v, std::uint32_t in_slot,
                                     std::uint32_t instance) const {
  const std::uint64_t key =
      seed_ ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(v) + 1)) ^
      (0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(instance) + 1));
  return KeyedPermutation{graph_.degree_unchecked(v), key}.apply(in_slot);
}

std::vector<VertexId> HashedRoutes::route(VertexId start,
                                          std::uint32_t first_slot,
                                          std::uint32_t length,
                                          std::uint32_t instance) const {
  if (start >= graph_.num_vertices())
    throw std::out_of_range("HashedRoutes::route: start out of range");
  const std::uint32_t deg0 = graph_.degree(start);
  if (deg0 == 0)
    throw std::invalid_argument("HashedRoutes::route: isolated start vertex");
  if (first_slot >= deg0)
    throw std::out_of_range("HashedRoutes::route: first_slot out of range");

  std::vector<VertexId> trail;
  trail.reserve(length + 1);
  trail.push_back(start);
  VertexId at = start;
  std::uint32_t slot = first_slot;
  for (std::uint32_t s = 0; s < length; ++s) {
    const VertexId next = graph_.neighbors_unchecked(at)[slot];
    // Incident slot of the edge (at -> next) on the `next` side.
    const auto nbrs = graph_.neighbors_unchecked(next);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), at);
    const auto in_slot = static_cast<std::uint32_t>(it - nbrs.begin());
    trail.push_back(next);
    slot = out_slot(next, in_slot, instance);
    at = next;
  }
  return trail;
}

std::pair<VertexId, VertexId> HashedRoutes::route_tail(
    VertexId start, std::uint32_t first_slot, std::uint32_t length,
    std::uint32_t instance) const {
  if (length == 0)
    throw std::invalid_argument("HashedRoutes::route_tail: length must be > 0");
  const std::vector<VertexId> trail = route(start, first_slot, length, instance);
  return {trail[trail.size() - 2], trail.back()};
}

}  // namespace sntrust
