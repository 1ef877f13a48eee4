// SybilRank (Cao, Sirivianos, Yang, Pregueiro — NSDI 2012): the distilled
// walk-based ranking defense. Trust is seeded at known-honest vertices and
// propagated by exactly O(log n) power-iteration steps of the random walk —
// *early termination* is the defense: honest vertices equalize within the
// mixing time of the honest region while trust leaks into the Sybil region
// only through attack edges. The final score is degree-normalized.
//
// SybilRank postdates the paper, but it is the cleanest expression of the
// principle the paper measures (walk-based trust bounded by mixing), so it
// completes the defense family implemented here.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/attack.hpp"
#include "sybil/eval.hpp"

namespace sntrust {

struct SybilRankParams {
  /// Power-iteration steps; 0 = floor(log2 n) + 1, the protocol's O(log n).
  std::uint32_t iterations = 0;
};

struct SybilRankResult {
  /// Trust per vertex before the degree normalization: the distribution of
  /// a walk started at the seeds, after `iterations_used` steps.
  std::vector<double> trust;
  /// Degree-normalized trust per vertex.
  std::vector<double> scores;
  /// Vertices by descending trust.
  Ranking ranking;
  std::uint32_t iterations_used = 0;
};

/// Propagates trust from `seeds` (each holding an equal share). Requires a
/// connected graph with >= 1 edge and at least one valid seed.
SybilRankResult run_sybilrank(const Graph& g,
                              const std::vector<VertexId>& seeds,
                              const SybilRankParams& params = {});

/// Cutoff evaluation (accept the top num_honest() of the ranking).
PairwiseEvaluation evaluate_sybilrank(const AttackedGraph& attacked,
                                      const std::vector<VertexId>& seeds,
                                      const SybilRankParams& params = {});

}  // namespace sntrust
