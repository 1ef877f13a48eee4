// Frontier-sparse vs dense kernel microbench for the mixing measurement.
//
// The sampling method evolves point-mass distributions, whose support stays
// tiny for the first many steps; the frontier-sparse kernel only touches
// support-adjacent rows while the dense kernel gathers all n rows every
// step. This bench times the short-walk mixing sweep (the paper's regime:
// TVD curves are read off at small t) on the largest slow-mixing bench
// analogue at three dense crossover fractions — 0 (dense from the first
// step), +infinity (sparse until saturation) and the default 0.5 (auto) —
// verifies all three produce bitwise identical curves, locates the auto
// crossover step, and prints one JSON object.
//
// A second table times the lane-block step behind measure_mixing
// (markov/lane_block.hpp) on the largest Figure 1(b) analogue: ns per
// lane-edge and resident set at 1, 2, 4, 8, 10 and 16 lanes, serial and at
// the pool's thread count, after checking every width bitwise against
// per-lane step_distribution. kLaneBlockWidth is read off this table.
//
// Run with SNTRUST_REPORT=<path> to emit the unified run report (the
// committed bench/baselines comparisons are produced this way).
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "markov/frontier.hpp"
#include "markov/lane_block.hpp"
#include "markov/mixing.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace sntrust;

// The three legs as dense crossover fractions (FrontierWalk::Options).
constexpr double kDense = 0.0;
constexpr double kAuto = FrontierWalk::Options{}.dense_fraction;
constexpr double kSparse = std::numeric_limits<double>::infinity();

MixingOptions sweep_options(double fraction, std::uint32_t sources,
                            std::uint32_t length) {
  MixingOptions options;
  options.num_sources = sources;
  options.max_walk_length = length;
  options.seed = bench::kBenchSeed;
  options.kernel_dense_fraction = fraction;
  return options;
}

struct ModeTiming {
  double ms = 0.0;
  MixingCurves curves;
};

ModeTiming time_mode(const Graph& g, double fraction, std::uint32_t sources,
                     std::uint32_t length, int reps = 1) {
  // Repetitions take the minimum wall time: the sweep is deterministic, so
  // the fastest rep is the least-perturbed one on a noisy host.
  ModeTiming timing;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Stopwatch clock;
    timing.curves =
        measure_mixing(g, sweep_options(fraction, sources, length));
    const double ms = clock.elapsed_ms();
    if (rep == 0 || ms < timing.ms) timing.ms = ms;
  }
  return timing;
}

bool bitwise_equal(const MixingCurves& a, const MixingCurves& b) {
  return a.sources == b.sources && a.tvd == b.tvd;
}

constexpr std::uint32_t kLaneWidths[] = {1, 2, 4, 8, 10, 16};
constexpr std::uint32_t kLaneSteps = 20;
constexpr int kLaneReps = 5;
constexpr std::uint32_t kIdentitySteps = 3;

struct LaneRow {
  std::uint32_t width = 0;
  std::uint32_t threads = 0;
  double ns_per_lane_edge = 0.0;
  double rss_mib = 0.0;  ///< resident-set growth while the block is live
};

/// Current resident set from /proc/self/statm; 0 where unavailable. Free
/// heap memory is handed back first (glibc), so the next sample's growth
/// is what was allocated and touched in between.
double current_rss_mib() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Dense start vectors for the lanes: point masses from distinct sources
/// walked a few steps, so every lane is a realistic spread distribution.
std::vector<Distribution> lane_starts(const Graph& g) {
  Rng rng{bench::kBenchSeed};
  std::vector<Distribution> starts;
  for (const VertexId source : rng.sample_without_replacement(
           g.num_vertices(), kLaneWidths[std::size(kLaneWidths) - 1])) {
    Distribution p = dirac(g.num_vertices(), source), next;
    for (int t = 0; t < 6; ++t) {
      step_distribution(g, p, next);
      p.swap(next);
    }
    starts.push_back(std::move(p));
  }
  return starts;
}

/// Every lane of a `width`-lane block must equal step_distribution on its
/// own column, entry for entry, and its TVD must equal total_variation.
bool lane_identity(const Graph& g, const std::vector<Distribution>& starts,
                   std::uint32_t width) {
  const Distribution pi = stationary_distribution(g);
  LaneBlock block{g, width, StepKind::kPlain};
  for (std::uint32_t l = 0; l < width; ++l) block.assign(l, starts[l]);
  for (std::uint32_t s = 0; s < kIdentitySteps; ++s) block.step(0);
  std::vector<double> tvd;
  block.tvd(0, pi, tvd);
  for (std::uint32_t l = 0; l < width; ++l) {
    Distribution p = starts[l], next;
    for (std::uint32_t s = 0; s < kIdentitySteps; ++s) {
      step_distribution(g, p, next);
      p.swap(next);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (block.at(v, l) != p[v]) return false;
    if (tvd[l] != total_variation(p, pi)) return false;
  }
  return true;
}

/// One row per width at `threads` workers. Widths take turns within each
/// repetition, so host drift hits them alike; each keeps its fastest rep.
std::vector<LaneRow> lane_rows_at(const Graph& g,
                                  const std::vector<Distribution>& starts,
                                  std::uint32_t threads) {
  const parallel::ScopedThreadCount scope{threads};
  std::vector<LaneRow> rows;
  for (const std::uint32_t width : kLaneWidths) {
    LaneRow row;
    row.width = width;
    row.threads = threads;
    rows.push_back(row);
  }
  for (int rep = 0; rep < kLaneReps; ++rep) {
    for (LaneRow& row : rows) {
      const double rss_before = current_rss_mib();
      LaneBlock block{g, row.width, StepKind::kPlain};
      for (std::uint32_t l = 0; l < row.width; ++l) block.assign(l, starts[l]);
      block.step(0);  // allocates the step output; untimed
      const obs::Stopwatch clock;
      for (std::uint32_t s = 0; s < kLaneSteps; ++s) block.step(0);
      const double ns = clock.elapsed_ms() * 1e6 /
                        (static_cast<double>(kLaneSteps) * row.width *
                         static_cast<double>(g.targets().size()));
      if (rep == 0 || ns < row.ns_per_lane_edge) row.ns_per_lane_edge = ns;
      row.rss_mib = std::max(row.rss_mib, current_rss_mib() - rss_before);
    }
  }
  return rows;
}

}  // namespace

int main() {
  // The slow-mixing community analogues keep walk supports small for the
  // longest, which is exactly where the sparse kernel pays off; dblp is the
  // largest of them in the bench set (its frontier stays below the dense
  // threshold through step ~9 of the short-walk sweep). The fast-mixing
  // analogues cross over within a handful of steps.
  const Graph g = [&] {
    const bench::Section section{"generate"};
    return bench::dataset_graph(dataset_by_id("dblp"));
  }();
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << "\n\n";

  constexpr std::uint32_t kSources = 24;
  constexpr std::uint32_t kShortWalk = 10;

  // Warm the graph and stationary-distribution caches so leg order does not
  // bias the comparison.
  (void)time_mode(g, kAuto, 2, 2);

  // One report span per kernel leg: the emitted run report then carries the
  // dense-vs-sparse short-walk comparison on its own (see bench/baselines).
  ModeTiming dense, sparse, automatic;
  {
    const bench::Section section{"short-walk sweep [dense]"};
    dense = time_mode(g, kDense, kSources, kShortWalk, 3);
  }
  {
    const bench::Section section{"short-walk sweep [sparse]"};
    sparse = time_mode(g, kSparse, kSources, kShortWalk, 3);
  }
  {
    const bench::Section section{"short-walk sweep [auto]"};
    automatic = time_mode(g, kAuto, kSources, kShortWalk, 3);
  }
  const bool identical = bitwise_equal(dense.curves, sparse.curves) &&
                         bitwise_equal(dense.curves, automatic.curves);

  // Speedup as a function of walk length: the sparse advantage decays as the
  // support saturates, which is what the auto crossover exploits.
  std::vector<std::uint32_t> lengths{2, 5, 10, 20, 40};
  std::vector<double> by_length_dense, by_length_auto;
  {
    const bench::Section section{"speedup by walk length (dense vs auto)"};
    for (const std::uint32_t length : lengths) {
      by_length_dense.push_back(time_mode(g, kDense, 8, length, 2).ms);
      by_length_auto.push_back(time_mode(g, kAuto, 8, length, 2).ms);
    }
  }

  // Auto-mode crossover: first step whose candidate frontier degree crosses
  // the dense threshold, walked from the sweep's first sampled source.
  std::uint32_t crossover = 0;
  double crossover_fraction = 0.0;
  {
    const bench::Section section{"crossover point"};
    FrontierWalk walk{g, {kAuto}};
    walk.reset(dense.curves.sources.front());
    for (std::uint32_t t = 1; t <= 64; ++t) {
      walk.step(StepKind::kPlain);
      if (walk.last_step_dense() || walk.saturated()) {
        crossover = t;
        crossover_fraction =
            static_cast<double>(walk.last_frontier_degree()) /
            static_cast<double>(g.targets().size());
        break;
      }
    }
  }

  // Lane table on the largest Figure 1(b) analogue (facebook_a has the
  // most edges of the five at every scale).
  std::vector<LaneRow> lane_rows;
  bool lanes_identical = true;
  Graph lane_graph;
  {
    const bench::Section section{"lane-block table"};
    lane_graph = bench::dataset_graph(dataset_by_id("facebook_a"));
    const std::vector<Distribution> starts = lane_starts(lane_graph);
    for (const std::uint32_t width : kLaneWidths)
      lanes_identical = lanes_identical &&
                        lane_identity(lane_graph, starts, width);
    std::vector<std::uint32_t> thread_counts{1};
    if (parallel::thread_count() > 1)
      thread_counts.push_back(parallel::thread_count());
    if (lanes_identical)
      for (const std::uint32_t threads : thread_counts)
        for (const LaneRow& row : lane_rows_at(lane_graph, starts, threads))
          lane_rows.push_back(row);
  }

  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.set_config("bench", "micro_kernels");
  reporter.set_config("graph_n", g.num_vertices());
  reporter.set_config("graph_m", g.num_edges());
  reporter.set_config("kernel_threshold", kAuto);

  const double speedup_sparse = sparse.ms > 0.0 ? dense.ms / sparse.ms : 0.0;
  const double speedup_auto =
      automatic.ms > 0.0 ? dense.ms / automatic.ms : 0.0;
  reporter.set_config("speedup_sparse", speedup_sparse);
  reporter.set_config("speedup_auto", speedup_auto);
  reporter.set_config("identical", identical);
  reporter.set_config("lanes_identical", lanes_identical);
  reporter.set_config("lane_graph_n", lane_graph.num_vertices());
  reporter.set_config("lane_graph_m", lane_graph.num_edges());
  for (const LaneRow& row : lane_rows) {
    const std::string key = "lanes_w" + std::to_string(row.width) + "_t" +
                            std::to_string(row.threads);
    reporter.set_config(key + "_ns_per_lane_edge", row.ns_per_lane_edge);
    reporter.set_config(key + "_rss_mib", row.rss_mib);
  }
  std::printf("{\n  \"bench\": \"micro_kernels\",\n");
  std::printf("  \"n\": %u, \"m\": %llu,\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf(
      "  \"short_walk\": {\"sources\": %u, \"max_walk_length\": %u,\n"
      "    \"dense_ms\": %.2f, \"sparse_ms\": %.2f, \"auto_ms\": %.2f,\n"
      "    \"speedup_sparse\": %.2f, \"speedup_auto\": %.2f},\n",
      kSources, kShortWalk, dense.ms, sparse.ms, automatic.ms, speedup_sparse,
      speedup_auto);
  std::printf("  \"by_walk_length\": [");
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const double speedup = by_length_auto[i] > 0.0
                               ? by_length_dense[i] / by_length_auto[i]
                               : 0.0;
    std::printf("%s{\"t\": %u, \"dense_ms\": %.2f, \"auto_ms\": %.2f, "
                "\"speedup\": %.2f}",
                i == 0 ? "" : ", ", lengths[i], by_length_dense[i],
                by_length_auto[i], speedup);
  }
  std::printf("],\n");
  std::printf("  \"crossover\": {\"step\": %u, \"frontier_fraction\": %.4f},\n",
              crossover, crossover_fraction);
  std::printf("  \"lane_table\": {\"graph\": \"facebook_a\", \"n\": %u, "
              "\"m\": %llu, \"steps\": %u, \"reps\": %d, \"identical\": %s, "
              "\"rows\": [",
              lane_graph.num_vertices(),
              static_cast<unsigned long long>(lane_graph.num_edges()),
              kLaneSteps, kLaneReps, lanes_identical ? "true" : "false");
  for (std::size_t i = 0; i < lane_rows.size(); ++i)
    std::printf("%s\n    {\"width\": %u, \"threads\": %u, "
                "\"ns_per_lane_edge\": %.3f, \"rss_mib\": %.1f}",
                i == 0 ? "" : ",", lane_rows[i].width, lane_rows[i].threads,
                lane_rows[i].ns_per_lane_edge, lane_rows[i].rss_mib);
  std::printf("]},\n");
  std::printf("  \"identical\": %s\n}\n", identical ? "true" : "false");
  return identical && lanes_identical ? 0 : 1;
}
