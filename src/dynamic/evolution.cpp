#include "dynamic/evolution.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "cores/core_profile.hpp"
#include "expansion/expansion_profile.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "markov/spectral.hpp"
#include "util/rng.hpp"

namespace sntrust {

GrowthTrace::GrowthTrace(VertexId final_vertices, std::vector<Edge> edges)
    : final_vertices_(final_vertices), edges_(std::move(edges)) {
  for (const Edge& e : edges_)
    if (e.u >= final_vertices_ || e.v >= final_vertices_)
      throw std::invalid_argument("GrowthTrace: edge endpoint out of range");
}

Graph GrowthTrace::snapshot(VertexId num_vertices) const {
  if (num_vertices > final_vertices_)
    throw std::invalid_argument("GrowthTrace::snapshot: size beyond trace");
  GraphBuilder builder{num_vertices};
  for (const Edge& e : edges_)
    if (e.u < num_vertices && e.v < num_vertices) builder.add_edge(e.u, e.v);
  return builder.build();
}

GrowthTrace preferential_attachment_trace(VertexId final_vertices,
                                          VertexId edges_per_node,
                                          std::uint64_t seed) {
  if (edges_per_node < 1 || final_vertices <= edges_per_node)
    throw std::invalid_argument(
        "preferential_attachment_trace: need final_vertices > edges_per_node >= 1");
  Rng rng{seed};
  std::vector<Edge> edges;
  std::vector<VertexId> endpoints;
  const VertexId seed_size = edges_per_node + 1;
  for (VertexId u = 0; u < seed_size; ++u) {
    for (VertexId v = u + 1; v < seed_size; ++v) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<VertexId> picks(edges_per_node);
  for (VertexId v = seed_size; v < final_vertices; ++v) {
    std::size_t got = 0;
    while (got < edges_per_node) {
      const VertexId target = endpoints[rng.uniform(endpoints.size())];
      bool duplicate = false;
      for (std::size_t i = 0; i < got; ++i)
        if (picks[i] == target) { duplicate = true; break; }
      if (!duplicate) picks[got++] = target;
    }
    for (std::size_t i = 0; i < edges_per_node; ++i) {
      edges.push_back({v, picks[i]});
      endpoints.push_back(v);
      endpoints.push_back(picks[i]);
    }
  }
  return GrowthTrace{final_vertices, std::move(edges)};
}

GrowthTrace affiliation_trace(VertexId final_vertices, std::uint32_t regions,
                              double groups_per_actor, std::uint64_t seed) {
  if (final_vertices < 16)
    throw std::invalid_argument("affiliation_trace: need >= 16 actors");
  if (regions < 1)
    throw std::invalid_argument("affiliation_trace: regions must be >= 1");
  Rng rng{seed};
  std::vector<Edge> edges;
  const auto total_groups = static_cast<std::uint64_t>(
      std::max(1.0, groups_per_actor * final_vertices));
  // Groups appear in order; group g draws actors from the prefix of the
  // vertex universe that has "arrived" by then, so early snapshots contain
  // exactly the early collaborations.
  std::vector<VertexId> group;
  for (std::uint64_t gidx = 0; gidx < total_groups; ++gidx) {
    const auto arrived = static_cast<VertexId>(std::max<std::uint64_t>(
        16, (gidx + 1) * final_vertices / total_groups));
    const VertexId region_size = std::max<VertexId>(4, arrived / regions);
    const bool global = regions > 1 && rng.bernoulli(0.06);
    const std::uint32_t size =
        global ? 2 : 2 + static_cast<std::uint32_t>(rng.uniform(4));
    const auto home = static_cast<std::uint32_t>(rng.uniform(regions));
    group.clear();
    std::size_t attempts = 0;
    while (group.size() < size && attempts < 64u * size) {
      ++attempts;
      const std::uint32_t r =
          global ? static_cast<std::uint32_t>(rng.uniform(regions)) : home;
      const VertexId lo = std::min<VertexId>(
          static_cast<VertexId>(r) * region_size,
          arrived > region_size ? arrived - region_size : 0);
      const VertexId hi = std::min<VertexId>(lo + region_size, arrived);
      if (hi <= lo) continue;
      const VertexId actor = lo + static_cast<VertexId>(rng.uniform(hi - lo));
      bool duplicate = false;
      for (const VertexId a : group)
        if (a == actor) { duplicate = true; break; }
      if (!duplicate) group.push_back(actor);
    }
    for (std::size_t i = 0; i < group.size(); ++i)
      for (std::size_t j = i + 1; j < group.size(); ++j)
        edges.push_back({group[i], group[j]});
  }
  return GrowthTrace{final_vertices, std::move(edges)};
}

std::vector<EvolutionPoint> measure_evolution(
    const GrowthTrace& trace, const std::vector<VertexId>& snapshot_sizes,
    const EvolutionOptions& options) {
  if (!std::is_sorted(snapshot_sizes.begin(), snapshot_sizes.end()))
    throw std::invalid_argument("measure_evolution: sizes must be ascending");
  std::vector<EvolutionPoint> points;
  points.reserve(snapshot_sizes.size());
  for (const VertexId size : snapshot_sizes) {
    if (size < 16)
      throw std::invalid_argument("measure_evolution: snapshot too small");
    const Graph g = largest_component(trace.snapshot(size)).graph;
    EvolutionPoint point;
    point.snapshot_vertices = size;
    point.nodes = g.num_vertices();
    point.edges = g.num_edges();
    if (g.num_edges() == 0) {
      points.push_back(point);
      continue;
    }
    const SlemResult slem = second_largest_eigenvalue(g);
    point.mu = slem.mu;
    point.mu_certified = slem.certified;

    const CoreDecomposition cores = core_decomposition(g);
    point.degeneracy = cores.degeneracy;
    for (const CoreLevel& level : core_profile(g, cores))
      point.max_core_count =
          std::max(point.max_core_count, level.num_components);

    ExpansionOptions expansion_options;
    expansion_options.num_sources = options.expansion_sources;
    expansion_options.seed = options.seed;
    point.min_expansion_factor =
        measure_expansion(g, expansion_options).min_alpha(g.num_vertices());
    points.push_back(point);
  }
  return points;
}

Graph apply_edge_batch(const Graph& g, const EdgeBatch& batch) {
  VertexId n = g.num_vertices();
  for (const Edge& e : batch.insertions) {
    const VertexId top = e.u > e.v ? e.u : e.v;
    if (top >= n) n = top + 1;
  }
  // Each pair as its two directed entries (row u, neighbour v), sorted and
  // deduplicated, so a row's removed and inserted neighbours are contiguous
  // and ascending. Self loops are dropped.
  const auto less = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  const auto directed = [&](const std::vector<Edge>& pairs) {
    std::vector<Edge> entries;
    entries.reserve(2 * pairs.size());
    for (const Edge& e : pairs) {
      if (e.u == e.v) continue;
      entries.push_back(e);
      entries.push_back({e.v, e.u});
    }
    std::sort(entries.begin(), entries.end(), less);
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    return entries;
  };
  const std::vector<Edge> removals = directed(batch.removals);
  const std::vector<Edge> insertions = directed(batch.insertions);

  // Each new row in one pass: the old row merged with its inserted
  // neighbours, minus its removed ones, which beat an insertion of the same
  // pair and match nothing when absent. The rows with batch entries are the
  // only ones that can differ from g's, and both rows of each pair are
  // among them.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> targets;
  targets.reserve(g.targets().size() + insertions.size());
  std::vector<VertexId> edited;
  auto removal = removals.begin();
  auto insertion = insertions.begin();
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const VertexId> row =
        u < g.num_vertices() ? g.neighbors_unchecked(u)
                             : std::span<const VertexId>{};
    auto removal_end = removal;
    while (removal_end != removals.end() && removal_end->u == u) ++removal_end;
    auto insertion_end = insertion;
    while (insertion_end != insertions.end() && insertion_end->u == u)
      ++insertion_end;
    if (removal == removal_end && insertion == insertion_end) {
      targets.insert(targets.end(), row.begin(), row.end());
    } else {
      edited.push_back(u);
      auto kept = row.begin();
      while (kept != row.end() || insertion != insertion_end) {
        VertexId v;
        if (insertion == insertion_end ||
            (kept != row.end() && *kept < insertion->v)) {
          v = *kept++;
        } else {
          if (kept != row.end() && *kept == insertion->v) ++kept;
          v = (insertion++)->v;
        }
        while (removal != removal_end && removal->v < v) ++removal;
        if (removal == removal_end || removal->v != v) targets.push_back(v);
      }
    }
    removal = removal_end;
    insertion = insertion_end;
    offsets[u + 1] = targets.size();
  }
  return Graph::with_edited_rows(std::move(offsets), std::move(targets),
                                 edited);
}

}  // namespace sntrust
