#include "markov/mixing.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "graph/components.hpp"
#include "markov/lane_block.hpp"
#include "markov/walker.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

// Sweep records: one TVD curve, each step's double as its bits, so a
// restored curve is bitwise the curve that was computed.
exec::Record curve_record(const std::vector<double>& curve) {
  exec::Record record(curve.size());
  std::transform(curve.begin(), curve.end(), record.begin(),
                 [](double v) { return std::bit_cast<std::uint64_t>(v); });
  return record;
}

// One TVD curve per source, in source order. Every curve has one value per
// step 0..length; a record of any other size came from a checkpoint that
// was not written by this sweep.
void collect_curves(const std::string& kind, const exec::SweepResult& swept,
                    std::uint32_t length, MixingCurves& out) {
  const std::size_t words = std::size_t{length} + 1;
  out.tvd.reserve(swept.records.size());
  for (std::size_t i = 0; i < swept.records.size(); ++i) {
    const exec::Record& record = swept.records[i];
    if (record.size() != words)
      throw std::runtime_error(
          kind + ": checkpointed TVD curve of source " + std::to_string(i) +
          " has " + std::to_string(record.size()) + " words, not " +
          std::to_string(words));
    std::vector<double>& curve = out.tvd.emplace_back(record.size());
    std::transform(record.begin(), record.end(), curve.begin(),
                   [](std::uint64_t w) { return std::bit_cast<double>(w); });
  }
}

// Estimator diagnostics over the collected curves (SNTRUST_DIAG). Runs on
// the serial aggregation path after collect_curves, in source-index order,
// so the recorded traces are bitwise identical at any thread count and the
// measurement itself is untouched. A source "converged" when its TVD curve
// either crossed the diag epsilon or plateaued strictly before the walk
// cap; a curve still visibly decaying when the cap hit is flagged.
void record_mixing_diag(const std::string& kind, const MixingCurves& curves) {
  if (!obs::diag_enabled()) return;
  double final_sum = 0.0, final_sumsq = 0.0;
  double cross_sum = 0.0, cross_sumsq = 0.0;
  std::uint64_t crossed = 0;
  for (std::size_t i = 0; i < curves.tvd.size(); ++i) {
    const std::vector<double>& curve = curves.tvd[i];
    obs::ConvergenceTrace trace;
    for (const double v : curve) trace.add(v);
    bool crossed_eps = false;
    for (std::size_t t = 0; t < curve.size(); ++t) {
      if (curve[t] <= obs::kDiagEpsilon) {
        crossed_eps = true;
        cross_sum += static_cast<double>(t);
        cross_sumsq += static_cast<double>(t) * static_cast<double>(t);
        ++crossed;
        break;
      }
    }
    const bool plateaued =
        !trace.empty() && trace.plateau_iteration() + 1 < trace.iterations();
    const bool converged = crossed_eps || plateaued;
    obs::DiagRegistry::instance().record_trace(
        obs::summarize_trace(kind, curves.sources[i], trace, converged));
    if (!converged)
      obs::DiagRegistry::instance().record_nonconverged(
          kind, curves.sources[i], trace.iterations(), trace.final_value());
    final_sum += trace.final_value();
    final_sumsq += trace.final_value() * trace.final_value();
  }
  if (!curves.tvd.empty())
    obs::DiagRegistry::instance().record_estimate(
        kind + ".tvd_final",
        obs::mean_ci95(final_sum, final_sumsq, curves.tvd.size()));
  if (crossed > 0)
    obs::DiagRegistry::instance().record_estimate(
        kind + ".time_to_eps", obs::mean_ci95(cross_sum, cross_sumsq, crossed));
}

/// Lane groups a block of `lanes` sources is stepped in by `workers`
/// threads: one group when a single thread runs the block, so every step
/// is one CSR pass for all lanes; otherwise workers + 1 (at most one per
/// lane), so a worker that finishes a step always finds a group it can
/// advance while the others are busy.
std::uint32_t lane_groups(std::uint32_t lanes, std::uint32_t workers) {
  return workers <= 1 ? 1 : std::min(lanes, workers + 1);
}

/// TVD curves (steps 0..length) for one lane block of sources
/// (markov/lane_block.hpp), whose lanes are split in index order into
/// balanced groups. The curves come in two parallel_chains calls:
///
///   1. Every lane walks its own FrontierWalk until its support saturates:
///      the sparse pull and the pre-saturation dense steps. Workers take
///      lanes in index order. A saturated lane's distribution moves into
///      its block column. A lane that never saturates within the walk (any
///      lane of a bipartite graph under the plain chain) stays on its
///      FrontierWalk throughout.
///   2. The groups step, each a chain: one step of one group, its gather
///      and its TVD, runs on one worker, with no barrier between steps.
std::vector<std::vector<double>> block_curves(
    const Graph& g, const std::vector<VertexId>& sources, StepKind kind,
    std::uint32_t length, const FrontierWalk::Options& kernel,
    const Distribution& pi, const StationaryPrefix& prefix) {
  const auto lanes = static_cast<std::uint32_t>(sources.size());
  const std::uint32_t groups =
      lane_groups(lanes, parallel::plan_workers(lanes));
  // Group k holds lanes [first[k], first[k + 1]).
  std::vector<std::uint32_t> first(groups + 1);
  std::vector<std::uint32_t> sizes(groups);
  for (std::uint32_t k = 0; k <= groups; ++k) {
    first[k] = static_cast<std::uint32_t>(std::uint64_t{k} * lanes / groups);
    if (k > 0) sizes[k - 1] = first[k] - first[k - 1];
  }
  LaneBlock block{g, sizes, kind};
  std::vector<std::vector<double>> curves(lanes);
  // joined[l]: steps lane l took on its FrontierWalk; its column holds
  // that step's distribution unless joined[l] == length (nothing left).
  std::vector<std::uint32_t> joined(lanes, length);
  {
    std::vector<std::optional<FrontierWalk>> walks(
        parallel::plan_workers(lanes));
    parallel::parallel_chains(
        std::vector<std::uint32_t>(lanes, 1),
        [&](std::size_t l, std::uint32_t, std::uint32_t w) {
          if (!walks[w]) walks[w].emplace(g, kernel);
          FrontierWalk& walk = *walks[w];
          walk.reset(sources[l]);
          std::vector<double>& curve = curves[l];
          curve.reserve(length + 1);
          curve.push_back(walk.tvd(pi, prefix));
          std::uint32_t t = 0;
          while (t < length && !walk.saturated()) {
            walk.step(kind);
            ++t;
            curve.push_back(walk.tvd(pi, prefix));
          }
          joined[l] = t;
          // No group steps yet, and lanes own disjoint columns.
          if (t < length)
            block.assign(static_cast<std::uint32_t>(l), walk.distribution());
        });
  }  // the walks' buffers go before the block allocates its step output
  block.reserve_step();

  // After s steps of its group lane l is at step joined[l] + s. A group
  // steps until its earliest-joined lane reaches the walk length, and later
  // lanes ride along past their own end, unrecorded and uncounted.
  std::vector<std::uint32_t> steps(groups, 0);
  for (std::uint32_t k = 0; k < groups; ++k)
    for (std::uint32_t l = first[k]; l < first[k + 1]; ++l)
      steps[k] = std::max(steps[k], length - joined[l]);
  obs::Counter& dense_steps = obs::metrics_counter("kernel.dense_steps");
  obs::QuantileHistogram& step_latency =
      obs::metrics_quantile("kernel.step_ms");
  std::vector<std::vector<double>> tvd(parallel::plan_workers(groups));
  parallel::parallel_chains(
      steps, [&](std::size_t k, std::uint32_t s, std::uint32_t w) {
        const obs::Stopwatch step_clock;
        const auto group = static_cast<std::uint32_t>(k);
        block.step(group);
        block.tvd(group, pi, tvd[w]);
        std::uint32_t live = 0;
        for (std::uint32_t l = first[k]; l < first[k + 1]; ++l) {
          if (joined[l] + s > length) continue;
          curves[l].push_back(tvd[w][l - first[k]]);
          ++live;
        }
        // Per live lane, as FrontierWalk counts its saturated steps.
        dense_steps.add(live);
        const double lane_ms = step_clock.elapsed_ms() / live;
        for (std::uint32_t j = 0; j < live; ++j) step_latency.record(lane_ms);
      });
  return curves;
}

}  // namespace

std::vector<double> MixingCurves::mean_curve() const {
  if (tvd.empty()) return {};
  std::vector<double> mean(tvd.front().size(), 0.0);
  for (const auto& curve : tvd)
    for (std::size_t t = 0; t < curve.size(); ++t) mean[t] += curve[t];
  for (double& v : mean) v /= static_cast<double>(tvd.size());
  return mean;
}

std::vector<double> MixingCurves::max_curve() const {
  if (tvd.empty()) return {};
  std::vector<double> worst(tvd.front().size(), 0.0);
  for (const auto& curve : tvd)
    for (std::size_t t = 0; t < curve.size(); ++t)
      worst[t] = std::max(worst[t], curve[t]);
  return worst;
}

MixingCurves measure_mixing(const Graph& g, const MixingOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("measure_mixing: graph must have edges");
  if (options.num_sources == 0)
    throw std::invalid_argument("measure_mixing: need at least one source");
  if (!is_connected(g))
    throw std::invalid_argument("measure_mixing: graph must be connected");

  const obs::Span span{"measure_mixing", "markov"};
  Rng rng{options.seed};
  const std::uint32_t k = std::min<std::uint32_t>(options.num_sources, n);

  MixingCurves out;
  out.sources = rng.sample_without_replacement(n, k);

  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  const FrontierWalk::Options kernel{options.kernel_dense_fraction};
  const StepKind kind = options.lazy ? StepKind::kLazy : StepKind::kPlain;
  // Lanes are independent and each lane's sums keep the single-vector
  // order, so curves are bitwise identical for any block width, dense
  // crossover and thread count, which is also why none of them enters the
  // checkpoint fingerprint.
  const auto run_block = [&](const std::vector<std::size_t>& indices) {
    std::vector<VertexId> sources;
    for (const std::size_t i : indices) sources.push_back(out.sources[i]);
    std::vector<exec::Record> records;
    for (const std::vector<double>& curve :
         block_curves(g, sources, kind, options.max_walk_length, kernel, pi,
                      prefix)) {
      records.push_back(curve_record(curve));
    }
    return records;
  };

  exec::SweepOptions sweep;
  sweep.kind = "measure_mixing";
  sweep.token = exec::process_token();
  if (exec::CheckpointStore::instance().armed())
    sweep.fingerprint = exec::fingerprint(
        {n, g.num_edges(), k, options.max_walk_length,
         options.lazy ? 1ULL : 0ULL, options.seed, g.fingerprint()});
  const exec::SweepResult swept =
      exec::run_sweep_blocks(k, kLaneBlockWidth, sweep, run_block);
  collect_curves(sweep.kind, swept, options.max_walk_length, out);
  record_mixing_diag("mixing.tvd", out);
  obs::count("mixing.sources", out.sources.size());
  obs::count("mixing.distribution_steps",
             swept.computed * options.max_walk_length);
  return out;
}

MixingCurves measure_mixing_monte_carlo(const Graph& g,
                                        const MixingOptions& options,
                                        std::uint32_t walks_per_point) {
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("measure_mixing_monte_carlo: graph must have edges");
  if (options.num_sources == 0 || walks_per_point == 0)
    throw std::invalid_argument(
        "measure_mixing_monte_carlo: need sources and walks");
  if (!is_connected(g))
    throw std::invalid_argument(
        "measure_mixing_monte_carlo: graph must be connected");

  Rng rng{options.seed};
  const std::uint32_t k = std::min<std::uint32_t>(options.num_sources, n);

  MixingCurves out;
  out.sources = rng.sample_without_replacement(n, k);
  const Distribution pi = stationary_distribution(g);

  // Each source gets a walk batch with its own Rng stream derived from the
  // source *position*, so curves depend only on (seed, i) — never on which
  // worker ran the batch or in what order.
  const std::uint64_t walker_base = rng();
  const obs::Span span{"measure_mixing_monte_carlo", "markov"};
  struct Scratch {
    std::vector<std::uint32_t> counts;
    Distribution empirical;
  };
  std::vector<Scratch> scratch(parallel::plan_workers(k));

  exec::SweepOptions sweep;
  sweep.kind = "measure_mixing_monte_carlo";
  sweep.token = exec::process_token();
  if (exec::CheckpointStore::instance().armed())
    sweep.fingerprint = exec::fingerprint(
        {n, g.num_edges(), k, options.max_walk_length, walks_per_point,
         options.seed, g.fingerprint()});
  const exec::SweepResult swept = exec::run_sweep(
      k, sweep, [&](std::size_t i, std::uint32_t worker) {
        Scratch& s = scratch[worker];
        s.counts.assign(n, 0u);
        if (s.empirical.size() != n) s.empirical.assign(n, 0.0);
        RandomWalker walker{g, stream_seed(walker_base, i)};
        const VertexId source = out.sources[i];
        std::vector<double> curve;
        curve.reserve(options.max_walk_length + 1);
        for (std::uint32_t t = 0; t <= options.max_walk_length; ++t) {
          std::fill(s.counts.begin(), s.counts.end(), 0u);
          for (std::uint32_t w = 0; w < walks_per_point; ++w)
            ++s.counts[walker.walk_endpoint(source, t)];
          for (VertexId v = 0; v < n; ++v)
            s.empirical[v] =
                static_cast<double>(s.counts[v]) / walks_per_point;
          curve.push_back(total_variation(s.empirical, pi));
        }
        return curve_record(curve);
      });
  collect_curves(sweep.kind, swept, options.max_walk_length, out);
  record_mixing_diag("mixing.monte_carlo", out);
  return out;
}

std::uint32_t mixing_time_estimate(const MixingCurves& curves, double epsilon) {
  const std::vector<double> worst = curves.max_curve();
  for (std::size_t t = 0; t < worst.size(); ++t)
    if (worst[t] <= epsilon) return static_cast<std::uint32_t>(t);
  return 0xFFFFFFFFu;
}

}  // namespace sntrust
