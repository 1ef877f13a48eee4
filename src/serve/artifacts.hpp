// Precomputed per-defense, per-seed-set artifacts behind the trust-query
// serving layer (DESIGN.md §15).
//
// The offline/online split mirrors SybilRank's own deployment design (Cao et
// al., NSDI 2012): the expensive graph-global computation — O(log n) power
// iterations, a GateKeeper distributer sweep, the k-core decomposition, a
// landmark walk evolution — runs *once* per (defense, config, graph) and is
// distilled into flat per-vertex arrays; every point query thereafter is a
// couple of array reads. Each artifact therefore precomputes not just the
// defense's raw output but the derived fields queries need (rank positions,
// percentiles, admission cutoffs), so the serving hot path never sorts,
// scans, or allocates.
//
// All artifact computations reuse the library's deterministic kernels
// (step_distribution matvecs, run_gatekeeper, core_decomposition), so an
// artifact — and hence every answer served from it — is bitwise identical at
// any thread count or batch size.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/gatekeeper.hpp"

namespace sntrust::serve {

/// Configuration of one service instance: the seed set and the per-defense
/// knobs. Part of every artifact-cache key via `fingerprint()`.
struct ServiceConfig {
  /// Known-honest seed set: SybilRank trust sources and landmark-walk
  /// origins. Must be non-empty and in range.
  std::vector<VertexId> seeds;
  /// SybilRank power-iteration count; 0 = ceil(log2 n) (the protocol).
  std::uint32_t sybilrank_iterations = 0;
  /// SybilRank admission: accept the top `accept_fraction` of the ranking.
  double accept_fraction = 0.8;
  /// GateKeeper admission controller (the paper uses a random honest vertex).
  VertexId controller = 0;
  GateKeeperParams gatekeeper;
  /// Landmark walk length; 0 = ceil(log2 n) (the mixing-time horizon).
  std::uint32_t landmark_walk_length = 0;

  /// Order-sensitive fold of every field; artifact-cache keys combine this
  /// with the graph fingerprint so a changed knob or seed set can never
  /// serve a stale artifact.
  std::uint64_t fingerprint() const;
};

/// SybilRank trust vectors: degree-normalized scores, the induced ranking
/// inverted into per-vertex rank positions, and the admission cutoff.
struct SybilRankArtifact {
  std::vector<double> scores;          ///< degree-normalized trust per vertex
  std::vector<std::uint32_t> rank_of;  ///< rank_of[v]: 0 = most trusted
  std::uint32_t admit_rank = 0;        ///< admitted iff rank_of[v] < admit_rank
  std::uint32_t iterations_used = 0;
};

/// GateKeeper ticket distribution: per-vertex admission votes.
struct GateKeeperArtifact {
  std::vector<std::uint32_t> admissions;  ///< distributers that reached v
  std::uint32_t threshold = 0;
  std::uint32_t num_distributers = 0;
};

/// Coreness plus its ECDF evaluated per vertex.
struct CorenessArtifact {
  std::vector<std::uint32_t> coreness;
  /// percentile[v] = fraction of vertices with coreness <= coreness[v].
  std::vector<double> percentile;
  std::uint32_t degeneracy = 0;
};

/// Landmark walk distribution: the seed-set walk evolved `walk_length`
/// steps — the probability a mixing-horizon walk from the trust seeds ends
/// at v (Whanau/SybilLimit's escape-probability primitive).
struct LandmarkArtifact {
  std::vector<double> distribution;
  std::uint32_t walk_length = 0;
};

/// Resolved per-graph iteration counts (the `0 = ceil(log2 n)` defaults).
std::uint32_t resolve_log_iterations(std::uint32_t requested, VertexId n);

SybilRankArtifact compute_sybilrank_artifact(const Graph& g,
                                             const ServiceConfig& config);
GateKeeperArtifact compute_gatekeeper_artifact(const Graph& g,
                                               const ServiceConfig& config);
CorenessArtifact compute_coreness_artifact(const Graph& g);
LandmarkArtifact compute_landmark_artifact(const Graph& g,
                                           const ServiceConfig& config);

}  // namespace sntrust::serve
