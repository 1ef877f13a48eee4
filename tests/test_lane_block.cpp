// Lane blocks (markov/lane_block.hpp) and the lane-blocked mixing sweep:
// every lane must equal the single-vector kernels bitwise, and
// measure_mixing must reproduce a per-source FrontierWalk loop — curves and
// kernel counters alike — for any source count, thread count, dense
// crossover and walk length.
#include "markov/lane_block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "markov/frontier.hpp"
#include "markov/mixing.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

constexpr std::uint32_t kW = kLaneBlockWidth;

/// A 20 x 30 grid: bipartite, so plain-chain supports alternate sides and
/// never saturate.
Graph grid_graph() {
  constexpr VertexId kRows = 20, kCols = 30;
  GraphBuilder b{kRows * kCols};
  for (VertexId r = 0; r < kRows; ++r)
    for (VertexId c = 0; c < kCols; ++c) {
      const VertexId v = r * kCols + c;
      if (c + 1 < kCols) b.add_edge(v, v + 1);
      if (r + 1 < kRows) b.add_edge(v, v + kCols);
    }
  return b.build();
}

/// K_12 with a 60-vertex path hanging off vertex 11: under the plain chain
/// sources saturate 60 to 120 steps in, depending on where they sit.
Graph clique_with_tail() {
  constexpr VertexId kClique = 12, kTail = 60;
  GraphBuilder b{kClique + kTail};
  for (VertexId u = 0; u < kClique; ++u)
    for (VertexId v = u + 1; v < kClique; ++v) b.add_edge(u, v);
  for (VertexId v = kClique - 1; v + 1 < kClique + kTail; ++v)
    b.add_edge(v, v + 1);
  return b.build();
}

/// Large enough that a block step's rows split over 3 and 4 workers.
Graph generated_graph() {
  return largest_component(powerlaw_cluster(1500, 3, 0.3, 29)).graph;
}

struct Counters {
  std::uint64_t dense = 0, sparse = 0, frontier = 0;
};

Counters read_counters() {
  return {obs::metrics_counter("kernel.dense_steps").value(),
          obs::metrics_counter("kernel.sparse_steps").value(),
          obs::metrics_counter("kernel.frontier_edges").value()};
}

Counters since(const Counters& before) {
  const Counters now = read_counters();
  return {now.dense - before.dense, now.sparse - before.sparse,
          now.frontier - before.frontier};
}

struct Measured {
  MixingCurves curves;
  Counters counters;
};

/// The sweep as it ran before lane blocks: every source alone on one
/// FrontierWalk for the whole walk, serially.
Measured reference_mixing(const Graph& g, const MixingOptions& options) {
  const Counters before = read_counters();
  Measured out;
  Rng rng{options.seed};
  const std::uint32_t k =
      std::min<std::uint32_t>(options.num_sources, g.num_vertices());
  out.curves.sources = rng.sample_without_replacement(g.num_vertices(), k);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  FrontierWalk walk{g, {options.kernel_dense_fraction}};
  const StepKind kind = options.lazy ? StepKind::kLazy : StepKind::kPlain;
  for (const VertexId source : out.curves.sources) {
    walk.reset(source);
    std::vector<double> curve{walk.tvd(pi, prefix)};
    for (std::uint32_t t = 1; t <= options.max_walk_length; ++t) {
      walk.step(kind);
      curve.push_back(walk.tvd(pi, prefix));
    }
    out.curves.tvd.push_back(std::move(curve));
  }
  out.counters = since(before);
  return out;
}

Measured blocked_mixing(const Graph& g, const MixingOptions& options) {
  const Counters before = read_counters();
  Measured out;
  out.curves = measure_mixing(g, options);
  out.counters = since(before);
  return out;
}

void expect_same(const Measured& expected, const Measured& actual,
                 const std::string& where) {
  ASSERT_EQ(expected.curves.sources, actual.curves.sources) << where;
  ASSERT_EQ(expected.curves.tvd.size(), actual.curves.tvd.size()) << where;
  for (std::size_t s = 0; s < expected.curves.tvd.size(); ++s) {
    ASSERT_EQ(expected.curves.tvd[s].size(), actual.curves.tvd[s].size())
        << where << " source " << s;
    for (std::size_t t = 0; t < expected.curves.tvd[s].size(); ++t)
      // EXPECT_EQ on doubles is exact equality: bitwise for non-NaN.
      ASSERT_EQ(expected.curves.tvd[s][t], actual.curves.tvd[s][t])
          << where << " source " << s << " step " << t;
  }
  EXPECT_EQ(expected.counters.dense, actual.counters.dense) << where;
  EXPECT_EQ(expected.counters.sparse, actual.counters.sparse) << where;
  EXPECT_EQ(expected.counters.frontier, actual.counters.frontier) << where;
}

MixingOptions options_for(std::uint32_t sources, std::uint32_t length,
                          bool lazy) {
  MixingOptions options;
  options.num_sources = sources;
  options.max_walk_length = length;
  options.lazy = lazy;
  options.seed = 41;
  return options;
}

struct Case {
  const char* name;
  Graph graph;
  std::uint32_t length;
};

std::vector<Case> identity_cases() {
  std::vector<Case> cases;
  cases.push_back({"generated", generated_graph(), 30});
  cases.push_back({"bipartite grid", grid_graph(), 40});
  cases.push_back({"clique with tail", clique_with_tail(), 90});
  return cases;
}

TEST(LaneBlock, EveryWidthMatchesSingleVectorKernels) {
  const Graph g = generated_graph();
  const Distribution pi = stationary_distribution(g);
  Rng rng{3};
  const std::vector<VertexId> sources =
      rng.sample_without_replacement(g.num_vertices(), kMaxLanes);
  for (const StepKind kind : {StepKind::kPlain, StepKind::kLazy}) {
    for (std::uint32_t lanes = 1; lanes <= kMaxLanes; ++lanes) {
      LaneBlock block{g, lanes, kind};
      std::vector<Distribution> expected;
      for (std::uint32_t l = 0; l < lanes; ++l) {
        expected.push_back(dirac(g.num_vertices(), sources[l]));
        block.assign(l, expected.back());
      }
      Distribution next;
      std::vector<double> tvd;
      for (int s = 0; s < 4; ++s) {
        block.step(0);
        block.tvd(0, pi, tvd);
        for (std::uint32_t l = 0; l < lanes; ++l) {
          if (kind == StepKind::kLazy)
            step_distribution_lazy(g, expected[l], next);
          else
            step_distribution(g, expected[l], next);
          expected[l].swap(next);
          for (VertexId v = 0; v < g.num_vertices(); ++v)
            ASSERT_EQ(block.at(v, l), expected[l][v])
                << "lanes " << lanes << " lane " << l << " vertex " << v;
          EXPECT_EQ(tvd[l], total_variation(expected[l], pi))
              << "lanes " << lanes << " lane " << l;
        }
      }
    }
  }
}

TEST(LaneBlock, GroupsStepOnTheirOwn) {
  // Groups of 3, 1 and 5 lanes share the block's buffers, step different
  // numbers of times in an interleaved order, and each lane still equals
  // its single-vector reference at its own group's step.
  const Graph g = generated_graph();
  const Distribution pi = stationary_distribution(g);
  const std::vector<std::uint32_t> sizes{3, 1, 5};
  const std::vector<std::uint32_t> first{0, 3, 4, 9};
  for (const StepKind kind : {StepKind::kPlain, StepKind::kLazy}) {
    LaneBlock block{g, sizes, kind};
    ASSERT_EQ(block.lanes(), 9u);
    std::vector<Distribution> expected;
    for (std::uint32_t l = 0; l < block.lanes(); ++l) {
      expected.push_back(dirac(g.num_vertices(), 11 * l + 2));
      block.assign(l, expected.back());
    }
    Distribution next;
    std::vector<double> tvd;
    for (const std::uint32_t group : {2u, 0u, 2u, 1u, 0u, 2u, 1u, 1u}) {
      block.step(group);
      block.tvd(group, pi, tvd);
      ASSERT_EQ(tvd.size(), sizes[group]);
      for (std::uint32_t l = first[group]; l < first[group + 1]; ++l) {
        if (kind == StepKind::kLazy)
          step_distribution_lazy(g, expected[l], next);
        else
          step_distribution(g, expected[l], next);
        expected[l].swap(next);
        EXPECT_EQ(tvd[l - first[group]], total_variation(expected[l], pi))
            << "lane " << l;
      }
      for (std::uint32_t l = 0; l < block.lanes(); ++l)
        for (VertexId v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(block.at(v, l), expected[l][v])
              << "lane " << l << " vertex " << v;
    }
  }
}

TEST(LaneBlock, ThreadCountDoesNotChangeValues) {
  const Graph g = generated_graph();
  const auto run = [&](std::uint32_t threads) {
    parallel::ScopedThreadCount scope{threads};
    LaneBlock block{g, kW, StepKind::kPlain};
    for (std::uint32_t l = 0; l < kW; ++l)
      block.assign(l, dirac(g.num_vertices(), 7 * l));
    for (int s = 0; s < 6; ++s) block.step(0);
    std::vector<double> values;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (std::uint32_t l = 0; l < kW; ++l) values.push_back(block.at(v, l));
    return values;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(3));
  EXPECT_EQ(serial, run(4));
}

TEST(LaneBlock, BadArgumentsThrow) {
  const Graph g = testing::path_graph(5);
  EXPECT_THROW((LaneBlock{g, 0, StepKind::kPlain}), std::invalid_argument);
  EXPECT_THROW((LaneBlock{g, kMaxLanes + 1, StepKind::kPlain}),
               std::invalid_argument);
  EXPECT_THROW((LaneBlock{g, 2, StepKind::kModulated}),
               std::invalid_argument);
  LaneBlock block{g, 2, StepKind::kLazy};
  EXPECT_THROW(block.assign(2, dirac(5, 0)), std::out_of_range);
  EXPECT_THROW(block.assign(0, dirac(4, 0)), std::invalid_argument);
  std::vector<double> tvd;
  EXPECT_THROW(block.tvd(0, Distribution(4, 0.25), tvd),
               std::invalid_argument);
  EXPECT_THROW(block.step(1), std::out_of_range);
  EXPECT_THROW(block.tvd(1, Distribution(5, 0.2), tvd), std::out_of_range);
  EXPECT_THROW((LaneBlock{g, std::vector<std::uint32_t>{}, StepKind::kPlain}),
               std::invalid_argument);
  EXPECT_THROW((LaneBlock{g, {3, 0, 2}, StepKind::kPlain}),
               std::invalid_argument);
}

TEST(LaneMixing, MatchesPerSourceReferenceAcrossSourceCountsAndThreads) {
  for (const Case& c : identity_cases()) {
    for (const bool lazy : {false, true}) {
      for (const std::uint32_t sources : {1u, kW - 1, kW, kW + 1, 2 * kW + 3}) {
        const MixingOptions options = options_for(sources, c.length, lazy);
        const Measured expected = reference_mixing(c.graph, options);
        for (const std::uint32_t threads : {1u, 3u, 4u}) {
          parallel::ScopedThreadCount scope{threads};
          expect_same(expected, blocked_mixing(c.graph, options),
                      std::string{c.name} + (lazy ? " lazy" : " plain") +
                          " sources " + std::to_string(sources) +
                          " threads " + std::to_string(threads));
        }
      }
    }
  }
}

TEST(LaneMixing, MatchesReferenceForEveryCrossover) {
  // 0 forces dense steps from the first one, +infinity keeps the sparse
  // pull until saturation, and 0.5 is the default.
  for (const Case& c : identity_cases()) {
    for (const bool lazy : {false, true}) {
      for (const double fraction :
           {0.5, 0.0, std::numeric_limits<double>::infinity()}) {
        MixingOptions options = options_for(kW + 1, c.length, lazy);
        options.kernel_dense_fraction = fraction;
        const Measured expected = reference_mixing(c.graph, options);
        parallel::ScopedThreadCount scope{4};
        expect_same(expected, blocked_mixing(c.graph, options),
                    std::string{c.name} + (lazy ? " lazy " : " plain ") +
                        "fraction " + std::to_string(fraction));
      }
    }
  }
}

TEST(LaneMixing, ShortAndZeroLengthWalks) {
  const Graph g = clique_with_tail();
  for (const bool lazy : {false, true}) {
    // Length 0 is the point masses alone; length 3 ends before any source
    // saturates, so no lane ever joins its block.
    for (const std::uint32_t length : {0u, 3u}) {
      const MixingOptions options = options_for(2 * kW + 3, length, lazy);
      const Measured expected = reference_mixing(g, options);
      const Measured actual = blocked_mixing(g, options);
      expect_same(expected, actual, "length " + std::to_string(length));
      for (const std::vector<double>& curve : actual.curves.tvd)
        EXPECT_EQ(curve.size(), length + 1u);
    }
  }
}

TEST(LaneMixing, TailFixtureJoinsLanesUnevenly) {
  // Guards the fixture behind the identity tests: in one block on the
  // clique with a tail, the plain chain must saturate some lanes at
  // distinct steps within the walk and leave others unsaturated, so the
  // uneven-join and never-join paths both run.
  const Graph g = clique_with_tail();
  const MixingOptions options = options_for(kW, 90, false);
  Rng rng{options.seed};
  std::vector<std::uint32_t> joined;
  std::uint32_t never = 0;
  FrontierWalk walk{g, {std::numeric_limits<double>::infinity()}};
  for (const VertexId source :
       rng.sample_without_replacement(g.num_vertices(), kW)) {
    walk.reset(source);
    std::uint32_t t = 0;
    while (!walk.saturated() && t < options.max_walk_length) {
      walk.step(StepKind::kPlain);
      ++t;
    }
    if (walk.saturated()) joined.push_back(t);
    else ++never;
  }
  ASSERT_GE(joined.size(), 2u);
  std::sort(joined.begin(), joined.end());
  EXPECT_LT(joined.front() + 10, joined.back());
  EXPECT_GE(never, 1u);
}

}  // namespace
}  // namespace sntrust
