#include "markov/modulated.hpp"

#include <stdexcept>

#include "graph/components.hpp"
#include "markov/frontier.hpp"
#include "markov/lane_block.hpp"
#include "markov/transition.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

/// One pre-divided 1-lane gather (markov/lane_block.hpp) with the write
/// expression fused in, so the trust-modulated steps pay no second serial
/// O(n) blend pass.
template <typename Write>
void gather_rows(const Graph& g, const Distribution& p, Distribution& out,
                 const Write& write) {
  double* const dst = out.data();
  lanes::step_single(g, p.data(), [&](std::size_t v, const double* acc) {
    dst[v] = write(v, acc[0]);
  });
}

void check_step_args(const Graph& g, const Distribution& p,
                     const Distribution& out, const char* who) {
  if (p.size() != g.num_vertices())
    throw std::invalid_argument(std::string{who} + ": size mismatch");
  if (&p == &out)
    throw std::invalid_argument(std::string{who} + ": out must not alias p");
}

}  // namespace

void step_modulated(const Graph& g, const Distribution& p, Distribution& out,
                    double alpha) {
  if (alpha < 0.0 || alpha >= 1.0)
    throw std::invalid_argument("step_modulated: alpha must be in [0,1)");
  check_step_args(g, p, out, "step_modulated");
  out.resize(g.num_vertices());
  gather_rows(g, p, out, [&](std::size_t v, double acc) {
    return alpha * p[v] + (1.0 - alpha) * acc;
  });
}

void step_originator_biased(const Graph& g, const Distribution& p,
                            Distribution& out, double alpha,
                            VertexId originator) {
  if (alpha < 0.0 || alpha >= 1.0)
    throw std::invalid_argument(
        "step_originator_biased: alpha must be in [0,1)");
  if (originator >= g.num_vertices())
    throw std::out_of_range("step_originator_biased: originator out of range");
  check_step_args(g, p, out, "step_originator_biased");
  out.resize(g.num_vertices());
  gather_rows(g, p, out,
              [&](std::size_t, double acc) { return acc * (1.0 - alpha); });
  out[originator] += alpha;
}

Distribution originator_stationary(const Graph& g, VertexId originator,
                                   double alpha, double tolerance,
                                   std::uint32_t max_iterations) {
  if (!(alpha > 0.0) || alpha >= 1.0)
    throw std::invalid_argument(
        "originator_stationary: alpha must be in (0,1)");
  if (originator >= g.num_vertices())
    throw std::out_of_range("originator_stationary: originator out of range");
  Distribution p = dirac(g.num_vertices(), originator);
  Distribution next(p.size());
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    step_originator_biased(g, p, next, alpha, originator);
    const double distance = total_variation(p, next);
    p.swap(next);
    if (distance <= tolerance) break;
  }
  return p;
}

std::uint32_t modulated_mixing_time(const Graph& g, double alpha,
                                    double epsilon,
                                    std::uint32_t num_sources,
                                    std::uint32_t max_walk_length,
                                    std::uint64_t seed) {
  if (g.num_vertices() == 0 || g.num_edges() == 0)
    throw std::invalid_argument("modulated_mixing_time: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument("modulated_mixing_time: graph must be connected");
  if (num_sources == 0)
    throw std::invalid_argument("modulated_mixing_time: need sources");

  Rng rng{seed};
  const std::uint32_t k =
      std::min<std::uint32_t>(num_sources, g.num_vertices());
  const std::vector<VertexId> sources =
      rng.sample_without_replacement(g.num_vertices(), k);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};

  // Evolve all sources in lockstep on frontier walks (the modulated chain
  // retains mass in place, so the support grows like the lazy chain) and
  // report the first t where the worst source is within epsilon.
  std::vector<FrontierWalk> walks;
  walks.reserve(k);
  for (const VertexId s : sources) {
    walks.emplace_back(g);
    walks.back().reset(s);
  }

  const auto worst = [&]() {
    double value = 0.0;
    for (const FrontierWalk& walk : walks)
      value = std::max(value, walk.tvd(pi, prefix));
    return value;
  };
  if (worst() <= epsilon) return 0;
  for (std::uint32_t t = 1; t <= max_walk_length; ++t) {
    for (FrontierWalk& walk : walks) walk.step(StepKind::kModulated, alpha);
    if (worst() <= epsilon) return t;
  }
  return 0xFFFFFFFFu;
}

}  // namespace sntrust
