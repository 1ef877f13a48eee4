#include "sybil/gatekeeper.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/traversal.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

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
  cases.push_back({"star", star_graph(12), {0, 5}});
  cases.push_back({"disconnected", disconnected_graph(), {0, 3, 5}});
  return cases;
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
        expect_same_run(distribute_tickets(c.graph, source, tickets),
                        reference_flood(c.graph, source, tickets));
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
  for (const OracleCase& c : oracle_cases()) {
    for (const VertexId source : c.sources) {
      for (const double fraction : {1e-9, 0.05, 0.5, 0.9, 1.0}) {
        SCOPED_TRACE(std::string(c.name) + " source " +
                     std::to_string(source) + " fraction " +
                     std::to_string(fraction));
        const TicketRun got = adaptive_distribute(c.graph, source, fraction);
        const TicketRun want = reference_adaptive(c.graph, source, fraction);
        EXPECT_EQ(got.tickets_sent, want.tickets_sent);
        EXPECT_EQ(got.vertices_reached, want.vertices_reached);
        EXPECT_EQ(got.reached, want.reached);
      }
    }
  }
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
