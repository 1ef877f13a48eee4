#include "sybil/gatekeeper.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "dynamic/evolution.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/traversal.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::churn_batch;
using testing::complete_graph;
using testing::disconnected_graph;
using testing::path_graph;
using testing::star_graph;

Graph expander(VertexId n, std::uint64_t seed) {
  return largest_component(barabasi_albert(n, 4, seed)).graph;
}

// Reference ticket flood, written independently of the library's level DAG:
// level-synchronous over a plain BFS, re-checking every neighbour's
// distance. A vertex consumes one ticket and forwards the rest evenly to
// its next-level neighbours, the first (rest mod k) of them in adjacency
// order getting one more.
TicketRun reference_flood(const Graph& g, VertexId source,
                          std::uint64_t tickets) {
  const BfsResult levels = bfs(g, source);
  TicketRun run;
  run.distributer = source;
  run.tickets_sent = tickets;
  run.reached.assign(g.num_vertices(), 0);
  run.tickets_received.assign(g.num_vertices(), 0);
  run.tickets_received[source] = tickets;

  std::vector<std::uint64_t> holding(g.num_vertices(), 0);
  std::vector<VertexId> frontier{source};
  holding[source] = tickets;
  std::vector<VertexId> next_frontier;
  std::vector<VertexId> forward;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    next_frontier.clear();
    for (const VertexId v : frontier) {
      std::uint64_t budget = holding[v];
      holding[v] = 0;
      if (budget == 0) continue;
      if (!run.reached[v]) {
        run.reached[v] = 1;
        ++run.vertices_reached;
      }
      --budget;
      if (budget == 0) continue;
      forward.clear();
      for (const VertexId w : g.neighbors(v))
        if (levels.distances[w] == depth + 1) forward.push_back(w);
      if (forward.empty()) continue;
      const std::uint64_t share = budget / forward.size();
      std::uint64_t remainder = budget % forward.size();
      for (const VertexId w : forward) {
        std::uint64_t grant = share;
        if (remainder > 0) { ++grant; --remainder; }
        if (grant == 0) continue;
        if (holding[w] == 0) next_frontier.push_back(w);
        holding[w] += grant;
        run.tickets_received[w] += grant;
      }
    }
    frontier.swap(next_frontier);
    ++depth;
  }
  return run;
}

// Reference budget search over reference_flood: double from 2 until the
// target is reached or the budget reaches the 64 n + 64 cap, then bisect.
TicketRun reference_adaptive(const Graph& g, VertexId source,
                             double reach_fraction) {
  const auto target = static_cast<std::uint64_t>(
      std::ceil(reach_fraction * g.num_vertices()));
  const std::uint64_t cap = 64ull * g.num_vertices() + 64;
  std::uint64_t tickets = 2;
  TicketRun run = reference_flood(g, source, tickets);
  while (run.vertices_reached < target && tickets < cap) {
    tickets *= 2;
    run = reference_flood(g, source, tickets);
  }
  if (run.vertices_reached < target) return run;
  std::uint64_t lo = tickets / 2, hi = tickets;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    TicketRun attempt = reference_flood(g, source, mid);
    if (attempt.vertices_reached >= target) {
      hi = mid;
      run = std::move(attempt);
    } else {
      lo = mid;
    }
  }
  return run;
}

// The slack of a budget hint, max(1, w / 4) for w the size of the
// source's level DAG (reachable vertices plus child entries, the edges from
// one BFS level to the next) over its level count, from a plain BFS.
std::uint64_t hint_slack(const Graph& g, VertexId source) {
  const BfsResult levels = bfs(g, source);
  std::uint64_t children = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (levels.distances[u] >= levels.level_sizes.size()) continue;
    for (const VertexId w : g.neighbors(u))
      children += levels.distances[w] == levels.distances[u] + 1;
  }
  const std::uint64_t width =
      (levels.reached + children) / levels.level_sizes.size();
  return std::max<std::uint64_t>(1, width / 4);
}

// A star of 76 leaves whose first leaf has 434 more. Reaching every vertex
// takes 76 * 434 + 2 = 32,986 tickets, just past the cap
// 64 * 511 + 64 = 32,768, itself a doubling that misses, so the search
// returns that doubling. A hint at the cap is within the DAG's width of
// 32,986 in added tickets: only the hinted step's cap bound stops it there.
Graph broom() {
  GraphBuilder b{511};
  for (VertexId v = 1; v <= 76; ++v) b.add_edge(0, v);
  for (VertexId v = 77; v < 511; ++v) b.add_edge(1, v);
  return b.build();
}

// Vertices with 0 through 9 children at several levels, shared children and
// neighbours within a level, a source whose row ends the CSR, and an
// isolated source. Levels of a few to a few hundred positions start and end
// inside the flood's 64-position words. From vertex 0, the t-th vertex in
// BFS order gets (t + 9) mod 10 children of its own, down to level 4. Every
// odd child below level 1 also has the next vertex of its parent's level
// as a parent, and every seventh is linked to the vertex before it on its
// level. Vertex n - 2 is isolated, and vertex n - 1, whose row ends the
// CSR, links 10 vertices on level 4.
Graph fans() {
  std::vector<Edge> edges;
  std::vector<VertexId> level{0};
  VertexId count = 1;
  std::uint32_t t = 0;
  for (int depth = 0; depth < 4; ++depth) {
    std::vector<VertexId> below;
    for (std::size_t i = 0; i < level.size(); ++i) {
      for (std::uint32_t c = (t++ + 9) % 10; c > 0; --c) {
        const VertexId v = count++;
        edges.push_back({level[i], v});
        if (v % 2 == 1 && i + 1 < level.size())
          edges.push_back({level[i + 1], v});
        if (v % 7 == 0 && !below.empty()) edges.push_back({below.back(), v});
        below.push_back(v);
      }
    }
    level = std::move(below);
  }
  GraphBuilder b{count + 2};
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
  for (std::size_t i = 0; i < 10; ++i)
    b.add_edge(count + 1, level[i * level.size() / 10]);
  return b.build();
}

struct OracleCase {
  const char* name;
  Graph graph;
  std::vector<VertexId> sources;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  cases.push_back({"ba300", expander(300, 41), {0, 7, 150, 299}});
  cases.push_back({"ba2000", expander(2000, 42), {0, 1234}});
  cases.push_back({"path", path_graph(9), {0, 4, 8}});
  // As deep as it is long: one level per vertex from an end.
  cases.push_back({"path4096", path_graph(4096), {0, 1000, 2048, 4095}});
  cases.push_back({"star", star_graph(12), {0, 5}});
  cases.push_back({"disconnected", disconnected_graph(), {0, 3, 5}});
  cases.push_back({"broom", broom(), {0, 5}});
  Graph fan_graph = fans();
  const VertexId n = fan_graph.num_vertices();
  cases.push_back({"fans", std::move(fan_graph), {0, 12, n - 2, n - 1}});
  return cases;
}

TEST(TicketDistribution, FansCoverEveryChildCountOnSeveralLevels) {
  // The oracle graph's promise: from vertex 0, each child count 0 to 9
  // occurs on at least two levels; the last row is no isolated vertex's.
  const Graph g = fans();
  const BfsResult levels = bfs(g, 0);
  std::vector<std::vector<std::uint8_t>> seen(10);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (levels.distances[u] >= levels.level_sizes.size()) continue;
    std::uint32_t children = 0;
    for (const VertexId w : g.neighbors(u))
      children += levels.distances[w] == levels.distances[u] + 1;
    if (children < 10) {
      seen[children].resize(levels.level_sizes.size(), 0);
      seen[children][levels.distances[u]] = 1;
    }
  }
  for (std::uint32_t k = 0; k < 10; ++k) {
    SCOPED_TRACE("children " + std::to_string(k));
    EXPECT_GE(std::accumulate(seen[k].begin(), seen[k].end(), 0), 2);
  }
  EXPECT_EQ(g.degree(g.num_vertices() - 2), 0u);
  EXPECT_EQ(g.degree(g.num_vertices() - 1), 10u);
}

void expect_same_run(const TicketRun& got, const TicketRun& want) {
  EXPECT_EQ(got.distributer, want.distributer);
  EXPECT_EQ(got.tickets_sent, want.tickets_sent);
  EXPECT_EQ(got.vertices_reached, want.vertices_reached);
  EXPECT_EQ(got.reached, want.reached);
  EXPECT_EQ(got.tickets_received, want.tickets_received);
}

TEST(TicketDistribution, SourceAlwaysReached) {
  const Graph g = expander(200, 1);
  const TicketRun run = distribute_tickets(g, 0, 1);
  EXPECT_EQ(run.vertices_reached, 1u);
  EXPECT_TRUE(run.reached[0]);
}

TEST(TicketDistribution, MoreTicketsReachMore) {
  const Graph g = expander(500, 2);
  const TicketRun small = distribute_tickets(g, 0, 10);
  const TicketRun large = distribute_tickets(g, 0, 1000);
  EXPECT_GT(large.vertices_reached, small.vertices_reached);
}

TEST(TicketDistribution, ReachedMatchesFlags) {
  const Graph g = expander(300, 3);
  const TicketRun run = distribute_tickets(g, 5, 100);
  std::uint64_t flagged = 0;
  for (const auto f : run.reached)
    if (f) ++flagged;
  EXPECT_EQ(flagged, run.vertices_reached);
}

TEST(TicketDistribution, TicketConservationOnStar) {
  // Hub with t tickets: keeps 1, forwards t-1 split across 9 leaves.
  const Graph g = star_graph(10);
  const TicketRun run = distribute_tickets(g, 0, 10);
  EXPECT_EQ(run.vertices_reached, 10u);
  const std::uint64_t leaf_total =
      std::accumulate(run.tickets_received.begin() + 1,
                      run.tickets_received.end(), std::uint64_t{0});
  EXPECT_EQ(leaf_total, 9u);
}

TEST(TicketDistribution, PathConsumesOnePerHop) {
  const Graph g = path_graph(6);
  const TicketRun run = distribute_tickets(g, 0, 4);
  // 4 tickets from vertex 0 reach exactly vertices 0..3.
  EXPECT_EQ(run.vertices_reached, 4u);
  EXPECT_TRUE(run.reached[3]);
  EXPECT_FALSE(run.reached[4]);
}

TEST(TicketDistribution, DeadEndLosesTickets) {
  // Star from a leaf: leaf -> hub -> other leaves (no further level); extra
  // tickets die at the last level.
  const Graph g = star_graph(5);
  const TicketRun run = distribute_tickets(g, 1, 1000);
  EXPECT_EQ(run.vertices_reached, 5u);
}

TEST(TicketDistribution, BadArgsThrow) {
  const Graph g = path_graph(3);
  EXPECT_THROW(distribute_tickets(g, 5, 10), std::out_of_range);
  EXPECT_THROW(distribute_tickets(g, 0, 0), std::invalid_argument);
}

TEST(TicketDistribution, MatchesReferenceFlood) {
  for (const OracleCase& c : oracle_cases()) {
    const std::uint64_t n = c.graph.num_vertices();
    for (const VertexId source : c.sources) {
      for (const std::uint64_t tickets :
           {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
            std::uint64_t{7}, n / 2 + 1, n, 5 * n + 3, 64 * n + 64,
            std::uint64_t{1} << 40}) {
        SCOPED_TRACE(std::string(c.name) + " source " +
                     std::to_string(source) + " tickets " +
                     std::to_string(tickets));
        const TicketRun run = distribute_tickets(c.graph, source, tickets);
        expect_same_run(run, reference_flood(c.graph, source, tickets));
        // Every reached vertex consumes a ticket: the budget search skips
        // the doublings below its target on this bound.
        EXPECT_LE(run.vertices_reached, tickets);
      }
    }
  }
}

TEST(TicketDistribution, ReachNeverFallsAsBudgetGrows) {
  // A child's grant never falls as its parent's holding grows, so by
  // induction over the levels no holding falls: the reached set only grows
  // with the budget. This is what makes the minimal budget unique, so any
  // exact search returns the same one.
  for (const OracleCase& c : oracle_cases()) {
    for (const VertexId source : c.sources) {
      TicketRun previous = distribute_tickets(c.graph, source, 1);
      for (std::uint64_t tickets = 2; tickets <= 3 * c.graph.num_vertices();
           tickets += 1 + tickets / 16) {
        SCOPED_TRACE(std::string(c.name) + " source " +
                     std::to_string(source) + " tickets " +
                     std::to_string(tickets));
        const TicketRun run = distribute_tickets(c.graph, source, tickets);
        ASSERT_GE(run.vertices_reached, previous.vertices_reached);
        for (VertexId v = 0; v < c.graph.num_vertices(); ++v)
          ASSERT_GE(run.reached[v], previous.reached[v]) << "vertex " << v;
        previous = run;
      }
    }
  }
}

TEST(AdaptiveDistribute, MatchesReferenceSearch) {
  // 1e-9 needs one vertex: the first flood, at the budget-2 floor, already
  // reaches it. 0.5 searches the middle. 1.0 on the disconnected graph is
  // never reached, so the search stops at the cap's last doubling.
  // The work counters show each step of the search: doublings flood from
  // the first power of two at or past the target up to the budget's, then
  // bisection probes, then one held flood and the added tickets.
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  obs::Counter& walks = obs::metrics_counter("gatekeeper.ticket_walks");
  bool bisected_then_added = false;
  bool added = false;
  for (const OracleCase& c : oracle_cases()) {
    for (const VertexId source : c.sources) {
      for (const double fraction : {1e-9, 0.05, 0.5, 0.9, 1.0}) {
        SCOPED_TRACE(std::string(c.name) + " source " +
                     std::to_string(source) + " fraction " +
                     std::to_string(fraction));
        const std::uint64_t floods_before = floods.value();
        const std::uint64_t walks_before = walks.value();
        const TicketRun got = adaptive_distribute(c.graph, source, fraction);
        const std::uint64_t flooded = floods.value() - floods_before;
        const std::uint64_t walked = walks.value() - walks_before;
        const TicketRun want = reference_adaptive(c.graph, source, fraction);
        EXPECT_EQ(got.tickets_sent, want.tickets_sent);
        EXPECT_EQ(got.vertices_reached, want.vertices_reached);
        EXPECT_EQ(got.reached, want.reached);
        EXPECT_EQ(got.tickets_received, want.tickets_received);

        const auto target = static_cast<std::uint64_t>(
            std::ceil(fraction * c.graph.num_vertices()));
        if (want.vertices_reached >= target) {
          const std::uint64_t first =
              std::max<std::uint64_t>(2, std::bit_ceil(target));
          const std::uint64_t last =
              std::max(first, std::bit_ceil(want.tickets_sent));
          const std::uint64_t doublings =
              std::countr_zero(last) - std::countr_zero(first) + 1;
          ASSERT_GE(flooded, doublings + 1);
          if (walked > 0 && flooded > doublings + 1) bisected_then_added = true;
        }
        if (walked > 0) added = true;
        // Bisection leaves a bracket no wider than the DAG's size over its
        // level count, at most 3 on the path, so a power-of-two bracket
        // leaves at most 2 added tickets.
        if (c.graph.num_vertices() == 4096) {
          EXPECT_LE(walked, 2u);
        }
      }
    }
  }
  EXPECT_TRUE(bisected_then_added);
  EXPECT_TRUE(added);
}

TEST(AdaptiveDistribute, EdgeCasesOfTheSearch) {
  const Graph g = disconnected_graph();
  // Budget-2 floor: one vertex is reached by any budget.
  EXPECT_EQ(adaptive_distribute(g, 0, 1e-9).tickets_sent, 2u);
  // Cap: the triangle never holds all 6 vertices; the doubling stops at
  // the first power of two at or past 64 * 6 + 64 = 448.
  const TicketRun capped = adaptive_distribute(g, 0, 1.0);
  EXPECT_EQ(capped.tickets_sent, 512u);
  EXPECT_EQ(capped.vertices_reached, 3u);
}

TEST(AdaptiveDistribute, HintsNeverChangeTheSearch) {
  // Every hint gives the reference search's flood. A hint from the budget
  // b to b + slack - 1 verifies in one flood with at most the slack in
  // added tickets; at b + slack the held flood already reaches the target
  // above the floor, so the cold search runs. The one-flood claims need a
  // budget the doubling reaches without passing the cap.
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  obs::Counter& walks = obs::metrics_counter("gatekeeper.ticket_walks");
  for (const OracleCase& c : oracle_cases()) {
    const std::uint64_t n = c.graph.num_vertices();
    const std::uint64_t cap = 64 * n + 64;
    for (std::size_t s = 0; s < c.sources.size(); ++s) {
      const VertexId source = c.sources[s];
      const VertexId other = c.sources[(s + 1) % c.sources.size()];
      const std::uint64_t slack = hint_slack(c.graph, source);
      for (const double fraction : {1e-9, 0.05, 0.5, 0.9, 1.0}) {
        const TicketRun want = reference_adaptive(c.graph, source, fraction);
        const std::uint64_t b = want.tickets_sent;
        const auto target =
            static_cast<std::uint64_t>(std::ceil(fraction * n));
        const bool proven = want.vertices_reached >= target && b <= cap;
        const std::uint64_t others_budget =
            adaptive_distribute(c.graph, other, fraction).tickets_sent;
        for (const std::uint64_t hint :
             {b, b + 1, b - 1, std::uint64_t{0}, std::uint64_t{1},
              std::uint64_t{2}, b / 8, 8 * b, cap, cap + 1,
              std::numeric_limits<std::uint64_t>::max(), others_budget,
              b + slack - 1, b + slack}) {
          SCOPED_TRACE(std::string(c.name) + " source " +
                       std::to_string(source) + " fraction " +
                       std::to_string(fraction) + " hint " +
                       std::to_string(hint));
          const std::uint64_t floods_before = floods.value();
          const std::uint64_t walks_before = walks.value();
          const TicketRun got =
              adaptive_distribute(c.graph, source, fraction, hint);
          const std::uint64_t flooded = floods.value() - floods_before;
          const std::uint64_t walked = walks.value() - walks_before;
          EXPECT_EQ(got.tickets_sent, want.tickets_sent);
          EXPECT_EQ(got.vertices_reached, want.vertices_reached);
          EXPECT_EQ(got.reached, want.reached);
          EXPECT_EQ(got.tickets_received, want.tickets_received);
          if (proven && hint >= b && hint < b + slack) {
            EXPECT_EQ(flooded, 1u);
            EXPECT_LE(walked, slack);
          }
          if (proven && b > 2 && hint == b + slack) {
            EXPECT_GT(flooded, 1u);
          }
        }
      }
    }
  }
}

TEST(AdaptiveDistribute, EdgeCasesOfTheSearchHoldWithHints) {
  // The budget-2 floor and the cap's last doubling, 512, as in
  // EdgeCasesOfTheSearch, whatever the hint: 448 is the cap.
  const Graph g = disconnected_graph();
  for (const std::uint64_t hint :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
        std::uint64_t{3}, std::uint64_t{447}, std::uint64_t{448},
        std::uint64_t{449}, std::uint64_t{512},
        std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE("hint " + std::to_string(hint));
    EXPECT_EQ(adaptive_distribute(g, 0, 1e-9, hint).tickets_sent, 2u);
    const TicketRun capped = adaptive_distribute(g, 0, 1.0, hint);
    EXPECT_EQ(capped.tickets_sent, 512u);
    EXPECT_EQ(capped.vertices_reached, 3u);
  }
}

TEST(AdaptiveDistribute, HitsTargetFraction) {
  const Graph g = expander(400, 4);
  const TicketRun run = adaptive_distribute(g, 0, 0.5);
  EXPECT_GE(run.vertices_reached, 200u);
}

TEST(AdaptiveDistribute, BadFractionThrows) {
  const Graph g = expander(50, 5);
  EXPECT_THROW(adaptive_distribute(g, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(adaptive_distribute(g, 0, 1.5), std::invalid_argument);
}

TEST(GateKeeper, AdmitsMostHonestOnExpander) {
  const Graph g = expander(600, 6);
  GateKeeperParams params;
  params.num_distributers = 20;
  params.f_admit = 0.1;
  params.seed = 6;
  const GateKeeperResult result = run_gatekeeper(g, 0, params);
  std::uint64_t admitted = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (result.admitted(v)) ++admitted;
  EXPECT_GT(static_cast<double>(admitted) / g.num_vertices(), 0.8);
}

TEST(GateKeeper, DefaultSampleWalkIsFloorLog2NPlus5) {
  // 256 is a power of two, where floor and ceil agree; at 300 the ceil
  // reading would walk one step further and sample other distributers.
  for (const VertexId n : {VertexId{256}, VertexId{300}}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const Graph g = expander(n, 13);
    ASSERT_EQ(g.num_vertices(), n);
    GateKeeperParams params;
    params.num_distributers = 12;
    params.seed = 13;
    const std::vector<VertexId> by_default =
        run_gatekeeper(g, 0, params).distributers;
    const auto floor_log2 = static_cast<std::uint32_t>(std::bit_width(n) - 1);
    params.sample_walk_length = floor_log2 + 5;
    EXPECT_EQ(run_gatekeeper(g, 0, params).distributers, by_default);
    if (!std::has_single_bit(n)) {
      params.sample_walk_length = floor_log2 + 6;
      EXPECT_NE(run_gatekeeper(g, 0, params).distributers, by_default);
    }
  }
}

TEST(GateKeeper, HintedRunAfterABatchMatchesTheColdRun) {
  // A run's own budgets as hints on the same graph verify in one flood per
  // distributer. After a churn-shaped batch, hints from the run before it
  // give the cold run's distributers, budgets and admissions, with fewer
  // floods, at 1 and 4 threads.
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  const Graph before = expander(800, 14);
  GateKeeperParams params;
  params.num_distributers = 24;
  params.seed = 14;
  std::uint64_t floods_before = floods.value();
  const GateKeeperResult previous = run_gatekeeper(before, 0, params);
  const std::uint64_t previous_floods = floods.value() - floods_before;
  ASSERT_EQ(previous.budgets.size(), params.num_distributers);
  const GateKeeperHints hints{previous.distributers, previous.budgets};
  floods_before = floods.value();
  const GateKeeperResult again = run_gatekeeper(before, 0, params, hints);
  EXPECT_EQ(floods.value() - floods_before, params.num_distributers);
  EXPECT_EQ(again.budgets, previous.budgets);
  EXPECT_EQ(again.admissions, previous.admissions);
  // The same budgets named for vertices that are no distributer go unused.
  const std::vector<VertexId> nobody(previous.distributers.size(),
                                     std::numeric_limits<VertexId>::max());
  floods_before = floods.value();
  EXPECT_EQ(run_gatekeeper(before, 0, params, {nobody, previous.budgets})
                .budgets,
            previous.budgets);
  EXPECT_EQ(floods.value() - floods_before, previous_floods);

  Rng rng{14};
  const Graph after = apply_edge_batch(before, churn_batch(before, rng, 8, 4));
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    parallel::ScopedThreadCount scope{threads};
    floods_before = floods.value();
    const GateKeeperResult cold = run_gatekeeper(after, 0, params);
    const std::uint64_t cold_floods = floods.value() - floods_before;
    floods_before = floods.value();
    const GateKeeperResult hinted = run_gatekeeper(after, 0, params, hints);
    const std::uint64_t hinted_floods = floods.value() - floods_before;
    EXPECT_EQ(hinted.distributers, cold.distributers);
    EXPECT_EQ(hinted.budgets, cold.budgets);
    EXPECT_EQ(hinted.admissions, cold.admissions);
    EXPECT_EQ(hinted.threshold, cold.threshold);
    EXPECT_LT(hinted_floods, cold_floods);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < cold.distributers.size(); ++i)
      kept += cold.distributers[i] == previous.distributers[i];
    EXPECT_GT(kept, 0u);
  }
  EXPECT_THROW(run_gatekeeper(after, 0, params,
                              {previous.distributers,
                               std::span(previous.budgets).first(1)}),
               std::invalid_argument);
}

TEST(GateKeeper, ThresholdScalesWithF) {
  const Graph g = expander(200, 7);
  GateKeeperParams params;
  params.num_distributers = 50;
  params.f_admit = 0.2;
  EXPECT_EQ(run_gatekeeper(g, 0, params).threshold, 10u);
  params.f_admit = 0.5;
  EXPECT_EQ(run_gatekeeper(g, 0, params).threshold, 25u);
}

TEST(GateKeeper, HigherFAdmitsFewer) {
  const Graph g = expander(500, 8);
  GateKeeperParams params;
  params.num_distributers = 30;
  params.seed = 8;
  std::uint64_t counts[2] = {0, 0};
  const double fs[2] = {0.05, 0.4};
  for (int i = 0; i < 2; ++i) {
    params.f_admit = fs[i];
    const GateKeeperResult result = run_gatekeeper(g, 0, params);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (result.admitted(v)) ++counts[i];
  }
  EXPECT_GE(counts[0], counts[1]);
}

TEST(GateKeeper, BadParamsThrow) {
  const Graph g = expander(100, 9);
  GateKeeperParams params;
  params.num_distributers = 0;
  EXPECT_THROW(run_gatekeeper(g, 0, params), std::invalid_argument);
  params.num_distributers = 5;
  params.f_admit = 0.0;
  EXPECT_THROW(run_gatekeeper(g, 0, params), std::invalid_argument);
  params.f_admit = 0.1;
  EXPECT_THROW(run_gatekeeper(g, 999, params), std::out_of_range);
  for (const double fraction :
       {0.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    params.reach_fraction = fraction;
    EXPECT_THROW(run_gatekeeper(g, 0, params), std::invalid_argument);
  }
}

TEST(GateKeeper, EvaluationAtSeveralFMatchesOneRunPerF) {
  const Graph honest = expander(500, 12);
  AttackParams attack;
  attack.num_sybils = 200;
  attack.attack_edges = 10;
  attack.seed = 12;
  const AttackedGraph attacked{honest, attack};
  GateKeeperParams params;
  params.num_distributers = 15;
  params.seed = 12;
  const std::vector<double> fs = {0.05, 0.2, 0.6};
  const std::vector<GateKeeperEvaluation> together =
      evaluate_gatekeeper(attacked, 0, params, fs);
  ASSERT_EQ(together.size(), fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    params.f_admit = fs[i];
    const GateKeeperEvaluation alone = evaluate_gatekeeper(attacked, 0, params);
    EXPECT_EQ(together[i].result.distributers, alone.result.distributers);
    EXPECT_EQ(together[i].result.admissions, alone.result.admissions);
    EXPECT_EQ(together[i].result.threshold, alone.result.threshold);
    EXPECT_EQ(together[i].honest_accept_fraction,
              alone.honest_accept_fraction);
    EXPECT_EQ(together[i].sybils_per_attack_edge,
              alone.sybils_per_attack_edge);
  }
  EXPECT_THROW(evaluate_gatekeeper(attacked, 0, params, {}),
               std::invalid_argument);
  EXPECT_THROW(evaluate_gatekeeper(attacked, 0, params, {0.1, 0.0}),
               std::invalid_argument);
}

TEST(GateKeeper, EvaluationBoundsSybils) {
  const Graph honest = expander(800, 10);
  AttackParams attack;
  attack.num_sybils = 400;
  attack.attack_edges = 20;
  attack.seed = 10;
  const AttackedGraph attacked{honest, attack};

  GateKeeperParams params;
  params.num_distributers = 20;
  params.f_admit = 0.2;
  params.seed = 10;
  const GateKeeperEvaluation eval = evaluate_gatekeeper(attacked, 0, params);
  EXPECT_GT(eval.honest_accept_fraction, 0.5);
  // The defense's point: admitted Sybils scale with attack edges, not with
  // the Sybil population (400 Sybils, 20 edges -> far fewer than 20 each).
  EXPECT_LT(eval.sybils_per_attack_edge, 10.0);
}

TEST(GateKeeper, EvaluationRequiresHonestController) {
  const Graph honest = expander(100, 11);
  AttackParams attack;
  attack.num_sybils = 10;
  attack.attack_edges = 2;
  const AttackedGraph attacked{honest, attack};
  GateKeeperParams params;
  EXPECT_THROW(
      evaluate_gatekeeper(attacked, attacked.num_honest() + 1, params),
      std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
