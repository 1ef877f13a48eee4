#include "sybil/sybilrank.hpp"

#include <stdexcept>

#include "graph/components.hpp"
#include "markov/transition.hpp"

namespace sntrust {

SybilRankResult run_sybilrank(const Graph& g,
                              const std::vector<VertexId>& seeds,
                              const SybilRankParams& params) {
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("run_sybilrank: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument("run_sybilrank: graph must be connected");
  if (seeds.empty())
    throw std::invalid_argument("run_sybilrank: need at least one seed");
  for (const VertexId s : seeds)
    if (s >= n) throw std::out_of_range("run_sybilrank: seed out of range");

  std::uint32_t iterations = params.iterations;
  if (iterations == 0) {
    iterations = 1;
    for (VertexId x = n; x > 1; x /= 2) ++iterations;
  }

  Distribution trust(n, 0.0);
  for (const VertexId s : seeds)
    trust[s] += 1.0 / static_cast<double>(seeds.size());

  Distribution buffer(n);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    step_distribution(g, trust, buffer);
    trust.swap(buffer);
  }

  SybilRankResult result;
  result.iterations_used = iterations;
  result.scores.resize(n);
  for (VertexId v = 0; v < n; ++v)
    result.scores[v] =
        g.degree(v) == 0 ? 0.0 : trust[v] / static_cast<double>(g.degree(v));
  result.ranking = ranking_from_scores(result.scores);
  result.trust = std::move(trust);
  return result;
}

PairwiseEvaluation evaluate_sybilrank(const AttackedGraph& attacked,
                                      const std::vector<VertexId>& seeds,
                                      const SybilRankParams& params) {
  for (const VertexId s : seeds)
    if (s >= attacked.num_honest())
      throw std::invalid_argument("evaluate_sybilrank: seeds must be honest");
  const SybilRankResult result =
      run_sybilrank(attacked.graph(), seeds, params);

  PairwiseEvaluation eval;
  std::uint64_t honest_accepted = 0;
  std::uint64_t sybil_accepted = 0;
  const VertexId cutoff = attacked.num_honest();
  for (VertexId i = 0; i < cutoff && i < result.ranking.size(); ++i) {
    if (attacked.is_sybil(result.ranking[i])) ++sybil_accepted;
    else ++honest_accepted;
  }
  eval.honest_trials = attacked.num_honest();
  eval.sybil_trials = attacked.num_sybils();
  eval.honest_accept_fraction =
      static_cast<double>(honest_accepted) / attacked.num_honest();
  eval.sybils_per_attack_edge = static_cast<double>(sybil_accepted) /
                                attacked.num_attack_edges();
  return eval;
}

}  // namespace sntrust
