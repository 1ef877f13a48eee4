// Serial-vs-pooled microbench for the parallel per-source sweeps.
//
// Times measure_mixing and measure_expansion once with the pool pinned to a
// single worker and once with the pooled worker count (SNTRUST_THREADS or
// hardware_concurrency, floored at 2 so the pooled leg actually exercises the
// pool even on a one-core box), verifies the two legs produce bitwise
// identical results, and prints one JSON object with the speedups.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace sntrust;

struct Leg {
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
  double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

template <typename Sweep, typename Equal>
Leg time_leg(std::uint32_t pooled_threads, const Sweep& sweep,
             const Equal& equal) {
  Leg leg;
  obs::Stopwatch serial_clock;
  parallel::set_thread_count(1);
  const auto serial_result = sweep();
  leg.serial_ms = serial_clock.elapsed_ms();

  obs::Stopwatch parallel_clock;
  parallel::set_thread_count(pooled_threads);
  const auto parallel_result = sweep();
  leg.parallel_ms = parallel_clock.elapsed_ms();

  leg.identical = equal(serial_result, parallel_result);
  return leg;
}

void print_leg(const char* name, const Leg& leg, bool trailing_comma) {
  std::printf(
      "  \"%s\": {\"serial_ms\": %.2f, \"parallel_ms\": %.2f, "
      "\"speedup\": %.2f}%s\n",
      name, leg.serial_ms, leg.parallel_ms, leg.speedup(),
      trailing_comma ? "," : "");
}

}  // namespace

static int run_bench() {
  using bench::kBenchSeed;

  // One pooled leg even on single-core boxes; real speedup needs real cores.
  const std::uint32_t pooled =
      std::max<std::uint32_t>(2, parallel::thread_count());

  const Graph g = [&] {
    const bench::Section section{"generate"};
    const auto n =
        static_cast<VertexId>(12000 * bench::dataset_scale(1.0));
    return largest_component(barabasi_albert(n, 8, kBenchSeed)).graph;
  }();
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << ", pooled threads=" << pooled << "\n\n";

  Leg mixing;
  {
    const bench::Section section{"mixing sweep (serial vs pooled)"};
    MixingOptions options;
    options.num_sources = 48;
    options.max_walk_length = 64;
    options.seed = kBenchSeed;
    mixing = time_leg(
        pooled, [&] { return measure_mixing(g, options); },
        [](const MixingCurves& a, const MixingCurves& b) {
          return a.sources == b.sources && a.tvd == b.tvd;
        });
  }

  Leg expansion;
  {
    const bench::Section section{"expansion sweep (serial vs pooled)"};
    ExpansionOptions options;
    options.num_sources = 512;
    options.seed = kBenchSeed;
    expansion = time_leg(
        pooled, [&] { return measure_expansion(g, options); },
        [](const ExpansionProfile& a, const ExpansionProfile& b) {
          if (a.sources_used != b.sources_used || a.max_depth != b.max_depth ||
              a.points.size() != b.points.size())
            return false;
          for (std::size_t i = 0; i < a.points.size(); ++i)
            if (a.points[i].set_size != b.points[i].set_size ||
                a.points[i].min_neighbors != b.points[i].min_neighbors ||
                a.points[i].max_neighbors != b.points[i].max_neighbors ||
                a.points[i].mean_neighbors != b.points[i].mean_neighbors ||
                a.points[i].observations != b.points[i].observations)
              return false;
          return true;
        });
  }
  parallel::set_thread_count(0);  // restore the process default

  std::printf("{\n  \"bench\": \"micro_parallel_sweep\",\n");
  std::printf("  \"threads\": %u,\n", pooled);
  print_leg("mixing", mixing, true);
  print_leg("expansion", expansion, true);
  std::printf("  \"identical\": %s\n}\n",
              mixing.identical && expansion.identical ? "true" : "false");
  return mixing.identical && expansion.identical ? 0 : 1;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
