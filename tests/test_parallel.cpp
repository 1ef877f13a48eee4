#include "parallel/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "sybil/attack.hpp"
#include "sybil/gatekeeper.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

/// Restores the process-default worker cap when a test ends.
using parallel::ScopedThreadCount;

TEST(ThreadPool, ThreadCountOverrideAndRestore) {
  const std::uint32_t initial = parallel::thread_count();
  EXPECT_GE(initial, 1u);
  {
    ScopedThreadCount scope{3};
    EXPECT_EQ(parallel::thread_count(), 3u);
    {
      ScopedThreadCount inner{7};
      EXPECT_EQ(parallel::thread_count(), 7u);
    }
    EXPECT_EQ(parallel::thread_count(), 3u);
  }
  EXPECT_EQ(parallel::thread_count(), initial);
}

TEST(ThreadPool, PlanWorkersRespectsItemsAndGrain) {
  ScopedThreadCount scope{4};
  EXPECT_EQ(parallel::plan_workers(0), 1u);
  EXPECT_EQ(parallel::plan_workers(1), 1u);
  EXPECT_EQ(parallel::plan_workers(3), 3u);
  EXPECT_EQ(parallel::plan_workers(100), 4u);
  // A grain of 50 over 100 items leaves room for only two slots.
  EXPECT_EQ(parallel::plan_workers(100, 50), 2u);
  EXPECT_EQ(parallel::plan_workers(100, 1000), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ScopedThreadCount scope{4};
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> hits(kItems);
  const std::uint32_t workers = parallel::plan_workers(kItems);
  parallel::parallel_for(0, kItems, [&](std::size_t i, std::uint32_t worker) {
    ASSERT_LT(worker, workers);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kItems; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, StaticChunkingBindsSlotsToContiguousRanges) {
  ScopedThreadCount scope{4};
  constexpr std::size_t kItems = 103;  // deliberately not divisible by 4
  std::vector<std::uint32_t> owner(kItems);
  parallel::parallel_for(0, kItems, [&](std::size_t i, std::uint32_t worker) {
    owner[i] = worker;
  });
  // Slot ids must be non-decreasing over the index range (contiguous cuts).
  for (std::size_t i = 1; i < kItems; ++i) EXPECT_LE(owner[i - 1], owner[i]);
  EXPECT_EQ(owner.front(), 0u);
  EXPECT_EQ(owner.back(), parallel::plan_workers(kItems) - 1);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  ScopedThreadCount scope{4};
  EXPECT_THROW(
      parallel::parallel_for(0, 64,
                             [&](std::size_t i, std::uint32_t) {
                               if (i == 17)
                                 throw std::runtime_error("boom at 17");
                             }),
      std::runtime_error);
  // The pool must remain usable after a throwing region.
  std::atomic<int> sum{0};
  parallel::parallel_for(0, 64, [&](std::size_t i, std::uint32_t) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPool, LowestSlotExceptionWins) {
  ScopedThreadCount scope{4};
  try {
    parallel::parallel_for(0, 100, [&](std::size_t i, std::uint32_t worker) {
      if (i == 10 || i == 90) throw std::runtime_error(
          "slot " + std::to_string(worker));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "slot 0");
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ScopedThreadCount scope{4};
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel::parallel_for(0, kOuter, [&](std::size_t i, std::uint32_t) {
    EXPECT_TRUE(parallel::in_parallel_region());
    parallel::parallel_for(0, kInner, [&](std::size_t j, std::uint32_t) {
      hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MapReduceMatchesSerialSum) {
  const auto run = [] {
    return parallel::parallel_map_reduce<std::uint64_t>(
        1, 10001, 0ull, [](std::size_t i) { return std::uint64_t{i}; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  };
  ScopedThreadCount serial{1};
  const std::uint64_t expected = run();
  EXPECT_EQ(expected, 10000ull * 10001ull / 2);
  ScopedThreadCount pooled{4};
  EXPECT_EQ(run(), expected);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ScopedThreadCount scope{4};
  bool called = false;
  parallel::parallel_for(5, 5, [&](std::size_t, std::uint32_t) {
    called = true;
  });
  EXPECT_FALSE(called);
  EXPECT_EQ(parallel::parallel_map_reduce<int>(
                3, 3, 42, [](std::size_t) { return 1; },
                [](int a, int b) { return a + b; }),
            42);
}

TEST(ParallelChains, RunsEveryStepOnceInChainOrder) {
  const std::vector<std::uint32_t> steps{5, 0, 3, 40, 1, 7, 2};
  for (const std::uint32_t threads : {1u, 3u, 4u}) {
    ScopedThreadCount scope{threads};
    // A chain's vector is touched only by the worker running its step.
    std::vector<std::vector<std::uint32_t>> seen(steps.size());
    std::atomic<std::uint32_t> bad_worker{0};
    parallel::parallel_chains(
        steps, [&](std::size_t c, std::uint32_t s, std::uint32_t worker) {
          if (worker >= parallel::plan_workers(steps.size()))
            bad_worker.fetch_add(1, std::memory_order_relaxed);
          seen[c].push_back(s);
        });
    EXPECT_EQ(bad_worker.load(), 0u);
    for (std::size_t c = 0; c < steps.size(); ++c) {
      std::vector<std::uint32_t> expected(steps[c]);
      std::iota(expected.begin(), expected.end(), 1u);
      EXPECT_EQ(seen[c], expected) << "chain " << c << " threads " << threads;
    }
  }
}

TEST(ParallelChains, ThrowingStepStopsTheRestAndPropagates) {
  ScopedThreadCount scope{4};
  const std::vector<std::uint32_t> steps(6, 50);
  std::vector<std::uint32_t> last(steps.size(), 0);
  try {
    parallel::parallel_chains(
        steps, [&](std::size_t c, std::uint32_t s, std::uint32_t) {
          last[c] = s;
          if (c == 2 && s == 3) throw std::runtime_error("boom in chain 2");
          // Steps long enough that the scheduler's lock is free most of
          // the time, as it is for real steps.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom in chain 2");
  }
  EXPECT_EQ(last[2], 3u);
  // Workers only finish the steps they had started, so the other chains
  // stop far short of their ends.
  for (std::size_t c = 0; c < steps.size(); ++c) EXPECT_LT(last[c], 50u);
  // The pool stays usable.
  std::atomic<std::uint32_t> runs{0};
  parallel::parallel_chains(steps, [&](std::size_t, std::uint32_t,
                                       std::uint32_t) {
    runs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(runs.load(), 300u);
}

TEST(ParallelChains, CancellationStopsTheNextStep) {
  ScopedThreadCount scope{4};
  std::atomic<std::uint32_t> runs{0};
  EXPECT_THROW(parallel::parallel_chains(
                   std::vector<std::uint32_t>(5, 100),
                   [&](std::size_t, std::uint32_t, std::uint32_t) {
                     if (runs.fetch_add(1) == 10)
                       exec::request_process_cancel("test");
                   }),
               exec::CancelledError);
  exec::reset_process_cancel();
  EXPECT_LT(runs.load(), 500u);
}

TEST(ParallelChains, NestedCallsRunInlineOnTheCallingWorker) {
  ScopedThreadCount scope{4};
  std::vector<std::atomic<int>> hits(8 * 10);
  parallel::parallel_for(0, 8, [&](std::size_t i, std::uint32_t) {
    const std::thread::id caller = std::this_thread::get_id();
    parallel::parallel_chains(
        std::vector<std::uint32_t>(10, 1),
        [&](std::size_t c, std::uint32_t, std::uint32_t worker) {
          EXPECT_EQ(worker, 0u);
          EXPECT_EQ(std::this_thread::get_id(), caller);
          hits[i * 10 + c].fetch_add(1, std::memory_order_relaxed);
        });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StreamSeed, IsDeterministicAndIndexSensitive) {
  EXPECT_EQ(stream_seed(1, 0), stream_seed(1, 0));
  EXPECT_NE(stream_seed(1, 0), stream_seed(1, 1));
  EXPECT_NE(stream_seed(1, 0), stream_seed(2, 0));
}

// --- Bitwise determinism of the ported sweeps: 1 thread vs 4 threads. ---

Graph determinism_graph() {
  return largest_component(barabasi_albert(400, 3, 7)).graph;
}

TEST(ParallelDeterminism, MeasureMixingIsThreadCountInvariant) {
  const Graph g = determinism_graph();
  MixingOptions options;
  options.num_sources = 12;
  options.max_walk_length = 40;
  options.seed = 99;
  ScopedThreadCount serial{1};
  const MixingCurves a = measure_mixing(g, options);
  ScopedThreadCount pooled{4};
  const MixingCurves b = measure_mixing(g, options);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.tvd, b.tvd);  // element-wise bitwise double equality
}

TEST(ParallelDeterminism, MeasureExpansionIsThreadCountInvariant) {
  const Graph g = determinism_graph();
  ExpansionOptions options;
  options.num_sources = 64;
  options.seed = 3;
  ScopedThreadCount serial{1};
  const ExpansionProfile a = measure_expansion(g, options);
  ScopedThreadCount pooled{4};
  const ExpansionProfile b = measure_expansion(g, options);
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(a.sources_used, b.sources_used);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].set_size, b.points[i].set_size);
    EXPECT_EQ(a.points[i].min_neighbors, b.points[i].min_neighbors);
    EXPECT_EQ(a.points[i].max_neighbors, b.points[i].max_neighbors);
    EXPECT_EQ(a.points[i].observations, b.points[i].observations);
    // Bitwise: both sides divide the same integer sum by the same count.
    EXPECT_EQ(a.points[i].mean_neighbors, b.points[i].mean_neighbors);
  }
}

TEST(ParallelDeterminism, GateKeeperIsThreadCountInvariant) {
  const Graph g = determinism_graph();
  AttackParams attack;
  attack.num_sybils = 40;
  attack.attack_edges = 8;
  attack.seed = 11;
  const AttackedGraph attacked{g, attack};
  GateKeeperParams params;
  params.num_distributers = 17;
  params.seed = 23;
  ScopedThreadCount serial{1};
  const GateKeeperEvaluation a = evaluate_gatekeeper(attacked, 0, params);
  ScopedThreadCount pooled{4};
  const GateKeeperEvaluation b = evaluate_gatekeeper(attacked, 0, params);
  EXPECT_EQ(a.result.distributers, b.result.distributers);
  EXPECT_EQ(a.result.admissions, b.result.admissions);
  EXPECT_EQ(a.result.threshold, b.result.threshold);
  EXPECT_EQ(a.honest_accept_fraction, b.honest_accept_fraction);
  EXPECT_EQ(a.sybils_per_attack_edge, b.sybils_per_attack_edge);
}

}  // namespace
}  // namespace sntrust
