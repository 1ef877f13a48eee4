#include "expansion/expansion_profile.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "graph/components.hpp"
#include "graph/frontier_bfs.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/rng.hpp"

namespace sntrust {

double ExpansionProfile::min_alpha(std::uint64_t n) const {
  double best = -1.0;
  for (const ExpansionPoint& p : points) {
    if (p.set_size == 0 || p.set_size > n / 2) continue;
    const double alpha = p.mean_alpha();
    if (best < 0.0 || alpha < best) best = alpha;
  }
  return best < 0.0 ? 0.0 : best;
}

ExpansionProfile measure_expansion(const Graph& g,
                                   const ExpansionOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("measure_expansion: empty graph");
  if (!is_connected(g))
    throw std::invalid_argument("measure_expansion: graph must be connected");

  std::vector<VertexId> sources;
  if (options.num_sources == 0 || options.num_sources >= n) {
    sources.resize(n);
    for (VertexId v = 0; v < n; ++v) sources[v] = v;
  } else {
    Rng rng{options.seed};
    sources = rng.sample_without_replacement(n, options.num_sources);
  }

  // The neighbour-count sum stays integral (level sizes are counts), so the
  // per-worker partial accumulators merge bitwise identically in any order
  // and the final mean is thread-count invariant.
  struct Accumulator {
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
  };

  const obs::Span span{"measure_expansion", "expansion"};
  // Local (non-static) metric handles: no hidden init-order coupling when
  // the sweep's first use races across workers.
  obs::Counter& bfs_runs = obs::metrics_counter("expansion.bfs_runs");
  obs::Histogram& frontier =
      obs::metrics_histogram("expansion.bfs_frontier");

  // Per-worker state: a reusable direction-optimizing BFS workspace. The
  // per-source result is the BFS level-size vector, the sweep record;
  // aggregation happens serially afterwards in index order, so a resumed
  // run folds exactly the same integers in exactly the same order.
  struct WorkerState {
    std::vector<FrontierBfs> runner;  // 0 or 1 entries; lazily constructed
  };
  const std::uint32_t workers = parallel::plan_workers(sources.size());
  std::vector<WorkerState> states(workers);

  exec::SweepOptions sweep;
  sweep.kind = "measure_expansion";
  sweep.token = exec::process_token();
  if (exec::CheckpointStore::instance().armed())
    sweep.fingerprint = exec::fingerprint(
        {n, g.num_edges(), sources.size(), options.num_sources, options.seed,
         g.fingerprint()});
  const exec::SweepResult swept = exec::run_sweep(
      sources.size(), sweep, [&](std::size_t i, std::uint32_t worker) {
        WorkerState& state = states[worker];
        if (state.runner.empty()) state.runner.emplace_back(g);
        const BfsResult& result = state.runner.front().run(sources[i]);
        bfs_runs.add(1);
        for (const std::uint64_t level_size : result.level_sizes)
          frontier.observe(static_cast<double>(level_size));
        return exec::Record(result.level_sizes);
      });

  ExpansionProfile out;
  std::map<std::uint64_t, Accumulator> by_size;
  // Diagnostics (SNTRUST_DIAG): per-source min-alpha samples give a CI over
  // the sampled-source estimate, and the running mean traced per source
  // shows how fast the estimate settles as the sample grows. Both fold in
  // the same serial index order as the aggregate itself.
  const bool diag = obs::diag_enabled();
  obs::ConvergenceTrace alpha_trace;
  double alpha_sum = 0.0, alpha_sumsq = 0.0;
  std::uint64_t alpha_count = 0;
  for (std::size_t i = 0; i < swept.records.size(); ++i) {
    // A BFS has level 0 and at most n levels; a record of any other size
    // came from a checkpoint that was not written by this sweep.
    const exec::Record& levels = swept.records[i];
    if (levels.empty() || levels.size() > n)
      throw std::runtime_error(
          "measure_expansion: checkpointed level sizes of source " +
          std::to_string(i) + " have " + std::to_string(levels.size()) +
          " words, not 1 to " + std::to_string(n));
    out.max_depth = std::max(out.max_depth,
                             static_cast<std::uint32_t>(levels.size() - 1));
    std::uint64_t envelope = 0;
    double source_min_alpha = -1.0;
    for (std::size_t j = 0; j + 1 < levels.size(); ++j) {
      envelope += levels[j];
      const std::uint64_t neighbors = levels[j + 1];
      Accumulator& acc = by_size[envelope];
      if (acc.count == 0) {
        acc.min = acc.max = neighbors;
      } else {
        acc.min = std::min(acc.min, neighbors);
        acc.max = std::max(acc.max, neighbors);
      }
      acc.sum += neighbors;
      ++acc.count;
      if (diag && envelope > 0 && envelope <= n / 2) {
        const double alpha = static_cast<double>(neighbors) /
                             static_cast<double>(envelope);
        if (source_min_alpha < 0.0 || alpha < source_min_alpha)
          source_min_alpha = alpha;
      }
    }
    if (diag && source_min_alpha >= 0.0) {
      alpha_sum += source_min_alpha;
      alpha_sumsq += source_min_alpha * source_min_alpha;
      ++alpha_count;
      alpha_trace.add(alpha_sum / static_cast<double>(alpha_count));
    }
  }
  if (diag && alpha_count > 0) {
    obs::DiagRegistry::instance().record_trace(obs::summarize_trace(
        "expansion.alpha", 0, alpha_trace, /*converged=*/true));
    obs::DiagRegistry::instance().record_estimate(
        "expansion.min_alpha",
        obs::mean_ci95(alpha_sum, alpha_sumsq, alpha_count));
  }

  out.sources_used = static_cast<std::uint32_t>(swept.records.size());
  out.points.reserve(by_size.size());
  for (const auto& [size, acc] : by_size) {
    ExpansionPoint point;
    point.set_size = size;
    point.min_neighbors = acc.min;
    point.max_neighbors = acc.max;
    point.mean_neighbors =
        static_cast<double>(acc.sum) / static_cast<double>(acc.count);
    point.observations = acc.count;
    out.points.push_back(point);
  }
  return out;
}

}  // namespace sntrust
