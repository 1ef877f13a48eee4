// GateKeeper (Tran, Li, Subramanian, Chow — INFOCOM 2011): decentralized
// Sybil-resilient node admission built on ticket distribution over an
// expander social graph. This is the system the paper runs for Table II.
//
// Protocol sketch:
//   1. The admission controller samples `num_distributers` vertices by
//      short random walks from itself ("bandwidth-limited" sampling).
//   2. Each distributer floods tickets level-by-level over the BFS DAG:
//      a node keeps one ticket and splits the remainder evenly among its
//      next-level neighbours; a node is *reached* if it consumed a ticket.
//      The distributer doubles the initial ticket count until at least half
//      the vertices are reached (adaptive O(n) bootstrap) and uses the
//      smallest count that does: its minimal budget. A distributer that was
//      also sampled on an earlier graph first verifies the budget it had
//      there, which after a small edge batch is close, and searches only
//      when that fails.
//   3. A suspect is admitted when at least f_admit * num_distributers
//      distributers reached it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/attack.hpp"

namespace sntrust {

struct GateKeeperParams {
  std::uint32_t num_distributers = 99;  ///< Table II samples 99
  double f_admit = 0.1;                 ///< admission fraction f, in (0,1]
  /// Length of the random walks used to sample distributers; O(log n) on a
  /// fast-mixing graph. 0 means floor(log2 n) + 5.
  std::uint32_t sample_walk_length = 0;
  /// Each distributer's budget is the smallest that reaches this fraction
  /// of the vertices, in (0,1].
  double reach_fraction = 0.5;
  std::uint64_t seed = 1;
};

/// Ticket distribution outcome from one distributer.
struct TicketRun {
  VertexId distributer = 0;
  std::uint64_t tickets_sent = 0;       ///< final ticket budget used
  std::uint64_t vertices_reached = 0;   ///< vertices that consumed a ticket
  std::vector<std::uint8_t> reached;    ///< reached[v] flag per vertex
  /// tickets_received[v] = tickets that arrived at v (pre-consumption).
  std::vector<std::uint64_t> tickets_received;
};

/// One ticket distribution with `tickets` initial tickets from `source`
/// over its BFS level DAG. Exposed for tests.
TicketRun distribute_tickets(const Graph& g, VertexId source,
                             std::uint64_t tickets);

/// The distribution at the minimal budget: the smallest budget, but not
/// below 2, that reaches ceil(reach_fraction * n) vertices. Reach never
/// falls as the budget grows, so it lies between the first doubling from 2
/// that reaches the target and the doubling before. When the doubling
/// passes 64 * n + 64 first, the last doubling's distribution is returned.
/// One level-DAG build serves the whole search. `budget_hint`, a guess at
/// the minimal budget such as the source's budget on an earlier graph, is
/// verified before any search and never changes the result: a hint near
/// the budget costs one flood, and any other hint falls back to the search.
TicketRun adaptive_distribute(
    const Graph& g, VertexId source, double reach_fraction,
    std::optional<std::uint64_t> budget_hint = std::nullopt);

/// Full GateKeeper admission decision for every vertex.
struct GateKeeperResult {
  std::vector<VertexId> distributers;
  /// budgets[i] = distributer i's minimal budget.
  std::vector<std::uint64_t> budgets;
  /// admissions[v] = number of distributers that reached v.
  std::vector<std::uint32_t> admissions;
  std::uint32_t threshold = 0;  ///< ceil(f_admit * num_distributers)
  bool admitted(VertexId v) const { return admissions[v] >= threshold; }
};

/// An earlier run's distributers and their minimal budgets, both as in its
/// GateKeeperResult. Empty spans are no hints.
struct GateKeeperHints {
  std::span<const VertexId> distributers;
  std::span<const std::uint64_t> budgets;
};

/// Runs the protocol with `controller` as the trusted admission controller.
/// Distributer i takes budgets[i] of `hints` as its budget hint when it is
/// the same vertex as the hints' distributer i; hints never change the
/// result, only how many floods find it. Throws std::invalid_argument when
/// the hints' spans differ in size.
GateKeeperResult run_gatekeeper(const Graph& g, VertexId controller,
                                const GateKeeperParams& params,
                                const GateKeeperHints& hints = {});

/// Table-II style evaluation on an attacked graph: fraction of honest
/// vertices admitted and Sybils admitted per attack edge.
struct GateKeeperEvaluation {
  double honest_accept_fraction = 0.0;
  double sybils_per_attack_edge = 0.0;
  GateKeeperResult result;
};

GateKeeperEvaluation evaluate_gatekeeper(const AttackedGraph& attacked,
                                         VertexId controller,
                                         const GateKeeperParams& params);

/// One evaluation per entry of `f_admits`, in order, from a single run: the
/// distributers and their floods do not depend on f, which sets only the
/// admission threshold. `params.f_admit` is replaced by each entry in turn.
std::vector<GateKeeperEvaluation> evaluate_gatekeeper(
    const AttackedGraph& attacked, VertexId controller,
    const GateKeeperParams& params, const std::vector<double>& f_admits);

}  // namespace sntrust
