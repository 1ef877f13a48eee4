#include "graph/graph.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace sntrust {

namespace {

/// Backing store for graphs built from vectors.
struct VectorStorage {
  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> targets;
};

/// offsets() of the default-constructed empty graph.
constexpr EdgeIndex kEmptyOffsets[1] = {0};

}  // namespace

/// Per-graph cache block, shared by all copies of a Graph: the structural
/// fingerprint, guarded by its own mutex.
struct GraphAux {
  std::mutex mutex;
  bool fingerprint_set = false;
  std::uint64_t fingerprint = 0;
};

Graph::Graph()
    : offsets_(kEmptyOffsets, 1),
      targets_(),
      aux_(std::make_shared<GraphAux>()) {}

Graph::Graph(std::vector<EdgeIndex> offsets, std::vector<VertexId> targets)
    : Graph{owning(std::move(offsets), std::move(targets))} {
  validate();
}

Graph Graph::owning(std::vector<EdgeIndex> offsets,
                    std::vector<VertexId> targets) {
  auto storage = std::make_shared<VectorStorage>();
  storage->offsets = std::move(offsets);
  storage->targets = std::move(targets);
  const std::span<const EdgeIndex> offsets_view = storage->offsets;
  const std::span<const VertexId> targets_view = storage->targets;
  return Graph{offsets_view, targets_view, std::move(storage),
               /*deep_validate=*/false};
}

Graph Graph::with_edited_rows(std::vector<EdgeIndex> offsets,
                              std::vector<VertexId> targets,
                              std::span<const VertexId> edited) {
  Graph g = owning(std::move(offsets), std::move(targets));
  g.validate_offsets();
  for (const VertexId v : edited) {
    if (v >= g.num_vertices())
      throw std::invalid_argument("Graph: edited row out of range");
    g.validate_row(v);
  }
  return g;
}

Graph::Graph(std::span<const EdgeIndex> offsets,
             std::span<const VertexId> targets,
             std::shared_ptr<const void> storage, bool deep_validate)
    : offsets_(offsets),
      targets_(targets),
      storage_(std::move(storage)),
      aux_(std::make_shared<GraphAux>()) {
  validate_header();
  if (deep_validate) validate();
}

Graph Graph::adopt(std::span<const EdgeIndex> offsets,
                   std::span<const VertexId> targets,
                   std::shared_ptr<const void> keepalive, bool deep_validate) {
  return Graph{offsets, targets, std::move(keepalive), deep_validate};
}

void Graph::check_vertex(VertexId v) const {
  if (v >= num_vertices())
    throw std::out_of_range("Graph: vertex " + std::to_string(v) +
                            " out of range (n=" +
                            std::to_string(num_vertices()) + ")");
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  check_vertex(v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u)
    for (VertexId v : neighbors_unchecked(u))
      if (u < v) out.push_back({u, v});
  return out;
}

bool operator==(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.offsets_, b.offsets_) &&
         std::ranges::equal(a.targets_, b.targets_);
}

std::uint64_t Graph::fingerprint() const {
  if (const std::optional<std::uint64_t> cached = cached_fingerprint())
    return *cached;
  // The chain checkpoints have always been keyed with, so checkpoints
  // written before the cache existed still match.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  h = stream_seed(h, offsets_.size());
  h = stream_seed(h, targets_.size());
  for (const EdgeIndex offset : offsets_) h = stream_seed(h, offset);
  for (const VertexId target : targets_) h = stream_seed(h, target);
  set_cached_fingerprint(h);
  return h;
}

std::optional<std::uint64_t> Graph::cached_fingerprint() const {
  std::lock_guard<std::mutex> lock(aux_->mutex);
  if (!aux_->fingerprint_set) return std::nullopt;
  return aux_->fingerprint;
}

void Graph::set_cached_fingerprint(std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(aux_->mutex);
  aux_->fingerprint_set = true;
  aux_->fingerprint = fingerprint;
}

void Graph::validate_header() const {
  if (offsets_.empty())
    throw std::invalid_argument("Graph: offsets must have >= 1 entry");
  if (offsets_.front() != 0)
    throw std::invalid_argument("Graph: offsets[0] must be 0");
  if (offsets_.back() != targets_.size())
    throw std::invalid_argument("Graph: offsets must end at targets.size()");
  if (targets_.size() % 2 != 0)
    throw std::invalid_argument("Graph: directed half-edge count must be even");
}

void Graph::validate_offsets() const {
  for (VertexId v = 0; v < num_vertices(); ++v)
    if (offsets_[v] > offsets_[v + 1])
      throw std::invalid_argument("Graph: offsets must be non-decreasing");
}

void Graph::validate_row(VertexId v) const {
  const VertexId n = num_vertices();
  for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) {
    const VertexId t = targets_[i];
    if (t >= n)
      throw std::invalid_argument("Graph: neighbour id out of range");
    if (t == v) throw std::invalid_argument("Graph: self loop at vertex " +
                                            std::to_string(v));
    if (i > offsets_[v] && t <= targets_[i - 1])
      throw std::invalid_argument(
          "Graph: adjacency of vertex " + std::to_string(v) +
          " not strictly sorted (duplicate or unsorted neighbour)");
    // The mirror, by binary search. An unsorted row t can hide it, but
    // then row t fails its own check.
    const VertexId* lo = targets_.data() + offsets_[t];
    const VertexId* hi = targets_.data() + offsets_[t + 1];
    if (!std::binary_search(lo, hi, v))
      throw std::invalid_argument("Graph: adjacency not symmetric for edge " +
                                  std::to_string(v) + "-" + std::to_string(t));
  }
}

void Graph::validate() const {
  validate_offsets();
  for (VertexId v = 0; v < num_vertices(); ++v) validate_row(v);
}

}  // namespace sntrust
