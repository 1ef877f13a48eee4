// SybilInfer-lite (after Danezis & Mittal, NDSS 2009): a walk-trace
// classifier. The full SybilInfer samples cuts with Metropolis-Hastings; the
// load-bearing signal — shown explicitly by Viswanath et al. (SIGCOMM 2010)
// and echoed in this paper's related work — is how much probability mass
// short random walks from the trusted seed leave on each vertex relative to
// its stationary share. We implement that signal directly: score(v) =
// hit-rate(v) / pi(v) over many O(log n)-length walk traces, then classify by
// the largest relative drop in the sorted score curve (the "cut").
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/attack.hpp"
#include "sybil/eval.hpp"

namespace sntrust {

struct SybilInferParams {
  /// Number of sampled walk traces. 0 means 20 * n.
  std::uint64_t num_traces = 0;
  /// Walk length; 0 means floor(log2 n) + 2.
  std::uint32_t walk_length = 0;
  std::uint64_t seed = 1;
};

struct SybilInferResult {
  /// Stationary-normalized endpoint frequency per vertex.
  std::vector<double> scores;
  /// Vertices sorted by descending score.
  Ranking ranking;
  /// accepted[v] = classified honest.
  std::vector<std::uint8_t> accepted;
  /// Number of vertices classified honest (the cut position).
  VertexId cut = 0;
};

/// Runs the classifier with `seed_vertex` as the trusted node.
SybilInferResult run_sybilinfer(const Graph& g, VertexId seed_vertex,
                                const SybilInferParams& params);

PairwiseEvaluation evaluate_sybilinfer(const AttackedGraph& attacked,
                                       VertexId seed_vertex,
                                       const SybilInferParams& params);

}  // namespace sntrust
