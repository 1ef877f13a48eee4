// Random-graph generators used to synthesize analogues of the paper's
// Table-I datasets (see DESIGN.md for the substitution rationale).
//
// Every generator takes an explicit seed and returns a simple undirected
// graph (self loops and parallel edges are removed by the builder). None of
// the generators guarantees connectivity; callers that need a connected graph
// (all measurements in this paper do) should pass the result through
// largest_component().
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// G(n, p) via geometric edge skipping, O(n + m) expected.
/// Preconditions: p in [0, 1].
Graph erdos_renyi(VertexId n, double p, std::uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `edges_per_node + 1` seed vertices, then attaches each new vertex to
/// `edges_per_node` existing vertices chosen proportionally to degree
/// (repeated-endpoint trick). Produces heavy-tailed, fast-mixing graphs —
/// the weak-trust "interaction graph" class of the paper.
/// Preconditions: n > edges_per_node >= 1.
Graph barabasi_albert(VertexId n, VertexId edges_per_node, std::uint64_t seed);

/// Holme–Kim powerlaw-cluster model: BA attachment where each subsequent
/// link follows a triad-closure step with probability `triangle_p`,
/// producing heavy tails plus tunable clustering.
/// Preconditions: n > edges_per_node >= 1, triangle_p in [0, 1].
Graph powerlaw_cluster(VertexId n, VertexId edges_per_node, double triangle_p,
                       std::uint64_t seed);

/// Planted-partition stochastic block model: `blocks` equal communities over
/// n vertices; within-community edge probability `p_in`, cross-community
/// `p_out`. Strong communities (p_out << p_in) yield slow-mixing graphs —
/// the strict-trust class of the paper.
/// Preconditions: blocks >= 1, probabilities in [0, 1].
Graph planted_partition(VertexId n, std::uint32_t blocks, double p_in,
                        double p_out, std::uint64_t seed);

/// Parameters for the affiliation (co-authorship) model.
struct AffiliationParams {
  VertexId num_actors = 0;        ///< people
  std::uint32_t num_groups = 0;   ///< papers / teams
  std::uint32_t min_group = 2;    ///< smallest team size
  std::uint32_t max_group = 6;    ///< largest team size
  /// Probability that a team slot is filled by preferential attachment over
  /// previously active actors (vs. a uniformly random actor). Higher values
  /// concentrate collaboration, mimicking prolific authors.
  double preferential = 0.7;
  /// Actors are partitioned into `regions` research communities; each group
  /// recruits inside one region except with probability `cross_region_p`,
  /// when it recruits globally. regions > 1 with small cross_region_p yields
  /// the strong community structure (and slow mixing) of co-authorship
  /// graphs.
  std::uint32_t regions = 1;
  double cross_region_p = 0.05;
};

/// Affiliation model: sample groups (teams), clique-connect each group's
/// members. Produces the high-clustering, community-fragmented structure of
/// co-authorship networks (Physics/DBLP class: slow mixing, fragmented
/// cores).
Graph affiliation_graph(const AffiliationParams& params, std::uint64_t seed);

/// Power-law degree sequence (exponent gamma > 1, min degree dmin, capped at
/// `cap`) via inverse-CDF sampling of a Pareto tail.
std::vector<VertexId> powerlaw_degrees(VertexId n, double gamma, VertexId dmin,
                                       VertexId cap, std::uint64_t seed);

/// Parameters for the degree-corrected community model.
struct PowerlawCommunityParams {
  VertexId num_vertices = 0;
  /// Power-law degree sequence parameters (see powerlaw_degrees()).
  double gamma = 2.2;
  VertexId min_degree = 2;
  VertexId max_degree_cap = 1000;
  /// Vertices are split into `blocks` contiguous communities.
  std::uint32_t blocks = 1;
  /// Fraction of each vertex's stubs wired globally (configuration model
  /// over the whole graph); the rest are wired within the vertex's block.
  /// 1.0 degenerates to a plain configuration model; small values give
  /// strong communities (slow mixing) with heavy-tailed degrees.
  double global_fraction = 0.5;
};

/// Degree-corrected planted-community graph: per-block configuration models
/// plus a global configuration model over the remaining stubs. This is the
/// tunable knob between the paper's weak-trust (fast) and strict-trust
/// (slow) dataset classes.
Graph powerlaw_community(const PowerlawCommunityParams& params,
                         std::uint64_t seed);

}  // namespace sntrust
