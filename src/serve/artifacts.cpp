#include "serve/artifacts.hpp"

#include <bit>
#include <stdexcept>

#include "cores/kcore.hpp"
#include "markov/distribution.hpp"
#include "markov/transition.hpp"
#include "obs/trace.hpp"
#include "sybil/sybilrank.hpp"
#include "util/rng.hpp"

namespace sntrust::serve {

namespace {

template <typename T>
  requires std::is_integral_v<T>
std::uint64_t chain(std::uint64_t h, T word) {
  // stream_seed is a splitmix64 finalizer over the pair, so chaining through
  // it is an order-sensitive fold (unlike exec::fingerprint's XOR).
  return stream_seed(h, static_cast<std::uint64_t>(word));
}

std::uint64_t chain(std::uint64_t h, double word) {
  return chain(h, std::bit_cast<std::uint64_t>(word));
}

}  // namespace

std::uint64_t ServiceConfig::fingerprint() const {
  std::uint64_t h = 0x736e74727573742eULL;  // "sntrust."
  h = chain(h, seeds.size());
  for (const VertexId s : seeds) h = chain(h, s);
  h = chain(h, sybilrank_iterations);
  h = chain(h, accept_fraction);
  h = chain(h, controller);
  h = chain(h, gatekeeper.num_distributers);
  h = chain(h, gatekeeper.f_admit);
  h = chain(h, gatekeeper.sample_walk_length);
  h = chain(h, gatekeeper.reach_fraction);
  h = chain(h, gatekeeper.seed);
  h = chain(h, landmark_walk_length);
  return h;
}

std::uint32_t resolve_log_iterations(std::uint32_t requested, VertexId n) {
  if (requested != 0) return requested;
  std::uint32_t iterations = 1;
  for (VertexId x = n; x > 1; x /= 2) ++iterations;
  return iterations;
}

namespace {

SybilRankResult sybilrank_run(const Graph& g, const ServiceConfig& config) {
  SybilRankParams params;
  params.iterations = config.sybilrank_iterations;
  return run_sybilrank(g, config.seeds, params);
}

SybilRankArtifact sybilrank_artifact(const Graph& g,
                                     const ServiceConfig& config,
                                     SybilRankResult result) {
  SybilRankArtifact artifact;
  artifact.scores = std::move(result.scores);
  artifact.iterations_used = result.iterations_used;
  artifact.rank_of.assign(g.num_vertices(), 0);
  for (std::uint32_t pos = 0; pos < result.ranking.size(); ++pos)
    artifact.rank_of[result.ranking[pos]] = pos;
  const double cutoff =
      config.accept_fraction * static_cast<double>(g.num_vertices());
  artifact.admit_rank = static_cast<std::uint32_t>(cutoff);
  return artifact;
}

}  // namespace

SybilRankArtifact compute_sybilrank_artifact(const Graph& g,
                                             const ServiceConfig& config) {
  obs::Span span{"serve.compute_sybilrank", "serve"};
  return sybilrank_artifact(g, config, sybilrank_run(g, config));
}

GateKeeperArtifact compute_gatekeeper_artifact(const Graph& g,
                                               const ServiceConfig& config,
                                               const GateKeeperHints& hints) {
  obs::Span span{"serve.compute_gatekeeper", "serve"};
  if (config.controller >= g.num_vertices())
    throw std::invalid_argument(
        "compute_gatekeeper_artifact: controller out of range");
  GateKeeperResult result =
      run_gatekeeper(g, config.controller, config.gatekeeper, hints);
  GateKeeperArtifact artifact;
  artifact.admissions = std::move(result.admissions);
  artifact.threshold = result.threshold;
  artifact.num_distributers = config.gatekeeper.num_distributers;
  artifact.distributers = std::move(result.distributers);
  artifact.budgets = std::move(result.budgets);
  return artifact;
}

CorenessArtifact compute_coreness_artifact(const Graph& g) {
  obs::Span span{"serve.compute_coreness", "serve"};
  const CoreDecomposition d = core_decomposition(g);
  CorenessArtifact artifact;
  artifact.degeneracy = d.degeneracy;
  const VertexId n = g.num_vertices();
  // Cumulative coreness counts give each vertex its ECDF value in O(n).
  std::vector<std::uint64_t> at_most(d.degeneracy + 1, 0);
  for (const std::uint32_t c : d.coreness) ++at_most[c];
  for (std::uint32_t k = 1; k <= d.degeneracy; ++k) at_most[k] += at_most[k - 1];
  artifact.percentile.resize(n);
  for (VertexId v = 0; v < n; ++v)
    artifact.percentile[v] = static_cast<double>(at_most[d.coreness[v]]) /
                             static_cast<double>(n);
  artifact.coreness = d.coreness;
  return artifact;
}

LandmarkArtifact compute_landmark_artifact(const Graph& g,
                                           const ServiceConfig& config) {
  obs::Span span{"serve.compute_landmark", "serve"};
  const VertexId n = g.num_vertices();
  if (config.seeds.empty())
    throw std::invalid_argument("compute_landmark_artifact: need seeds");
  for (const VertexId s : config.seeds)
    if (s >= n)
      throw std::invalid_argument(
          "compute_landmark_artifact: seed out of range");
  LandmarkArtifact artifact;
  artifact.walk_length = resolve_log_iterations(config.landmark_walk_length, n);
  Distribution p(n, 0.0);
  for (const VertexId s : config.seeds)
    p[s] += 1.0 / static_cast<double>(config.seeds.size());
  evolve(g, p, artifact.walk_length);
  artifact.distribution = std::move(p);
  return artifact;
}

WalkArtifacts compute_walk_artifacts(const Graph& g,
                                     const ServiceConfig& config) {
  WalkArtifacts out;
  std::vector<double> trust;
  {
    obs::Span span{"serve.compute_sybilrank", "serve"};
    SybilRankResult result = sybilrank_run(g, config);
    trust = std::move(result.trust);
    out.sybilrank = sybilrank_artifact(g, config, std::move(result));
  }
  const std::uint32_t walk_length =
      resolve_log_iterations(config.landmark_walk_length, g.num_vertices());
  if (walk_length != out.sybilrank.iterations_used) {
    out.landmark = compute_landmark_artifact(g, config);
    return out;
  }
  obs::Span span{"serve.compute_landmark", "serve"};
  out.landmark.walk_length = walk_length;
  out.landmark.distribution = std::move(trust);
  return out;
}

}  // namespace sntrust::serve
