#include "sybil/gatekeeper.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "graph/frontier_bfs.hpp"
#include "markov/walker.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

/// One distributer's BFS level DAG, which is all a ticket flood reads.
/// Reachable vertices sit at positions in level order (ascending id within
/// a level), and each vertex's forward children, its next-level neighbours
/// in adjacency order, are stored as positions. A flood is then one forward
/// pass over a position-indexed holding array. The buffers are reused
/// across builds, so a worker allocates only while its DAGs still grow.
class LevelDag {
 public:
  explicit LevelDag(const Graph& g)
      : graph_(g),
        position_(g.num_vertices()),
        ticket_runs_(obs::metrics_counter("gatekeeper.ticket_runs")),
        tickets_sent_(obs::metrics_counter("gatekeeper.tickets_sent")) {}

  /// Rebuilds the DAG from a BFS of the same graph.
  void build(const BfsResult& levels) {
    const std::size_t depth = levels.level_sizes.size();
    level_start_.assign(depth + 1, 0);
    for (std::size_t d = 0; d < depth; ++d)
      level_start_[d + 1] = level_start_[d] + levels.level_sizes[d];
    const std::size_t reachable = level_start_[depth];

    cursor_.assign(level_start_.begin(), level_start_.end() - 1);
    order_.resize(reachable);
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      const std::uint32_t d = levels.distances[v];
      if (d == kUnreachable) continue;
      const auto p = static_cast<std::uint32_t>(cursor_[d]++);
      order_[p] = v;
      position_[v] = p;
    }

    // Every neighbour of a reachable vertex is reachable, so position_ is
    // current for every neighbour read here.
    child_begin_.resize(reachable + 1);
    child_begin_[0] = 0;
    children_.clear();
    for (std::size_t d = 0; d < depth; ++d) {
      const std::uint64_t next_begin = level_start_[d + 1];
      const std::uint64_t next_size =
          d + 1 < depth ? levels.level_sizes[d + 1] : 0;
      for (std::uint64_t p = level_start_[d]; p < level_start_[d + 1]; ++p) {
        for (const VertexId w : graph_.neighbors_unchecked(order_[p])) {
          const std::uint32_t q = position_[w];
          if (q - next_begin < next_size) children_.push_back(q);
        }
        child_begin_[p + 1] = children_.size();
      }
    }
    holding_.assign(reachable, 0);
  }

  VertexId vertex(std::uint32_t position) const { return order_[position]; }

  /// Floods `tickets` from the source at position 0. A vertex holding h
  /// tickets consumes one and splits the other h - 1 evenly over its
  /// children, the first (h - 1) mod k of its k children getting one more;
  /// tickets that reach a vertex without children are lost. Calls
  /// on_reached(position, tickets_received) for every vertex that consumes
  /// a ticket, in position order, and stops once `stop_at` vertices have.
  /// Returns the number reached.
  template <typename OnReached>
  std::uint64_t flood(std::uint64_t tickets, std::uint64_t stop_at,
                      OnReached&& on_reached) {
    ticket_runs_.add(1);
    tickets_sent_.add(tickets);
    std::uint64_t* const holding = holding_.data();
    holding[0] = tickets;
    std::uint64_t reached = 0;
    std::size_t last = 0;  // furthest position that holds tickets
    std::size_t p = 0;
    for (; p <= last; ++p) {
      std::uint64_t budget = holding[p];
      if (budget == 0) continue;
      holding[p] = 0;
      on_reached(static_cast<std::uint32_t>(p), budget);
      if (++reached == stop_at) break;
      --budget;
      const EdgeIndex begin = child_begin_[p];
      const std::uint64_t k = child_begin_[p + 1] - begin;
      if (budget == 0 || k == 0) continue;
      const std::uint64_t share = budget / k;
      const std::uint64_t extra = budget % k;
      const std::uint64_t granted = share == 0 ? extra : k;
      for (std::uint64_t i = 0; i < granted; ++i) {
        const std::uint32_t child = children_[begin + i];
        holding[child] += share + (i < extra ? 1 : 0);
        last = std::max<std::size_t>(last, child);
      }
    }
    // Holdings are all zero between floods; an early stop leaves some
    // ahead of p.
    if (p < last) std::fill(holding + p + 1, holding + last + 1, 0);
    return reached;
  }

 private:
  const Graph& graph_;
  std::vector<std::uint32_t> position_;  // vertex -> position
  std::vector<VertexId> order_;          // position -> vertex
  std::vector<std::uint64_t> level_start_, cursor_;
  std::vector<EdgeIndex> child_begin_;   // p's children: [p] to [p + 1]
  std::vector<std::uint32_t> children_;  // child positions
  std::vector<std::uint64_t> holding_;   // tickets held, per position
  obs::Counter& ticket_runs_;
  obs::Counter& tickets_sent_;
};

/// Throws unless `value` is in (0,1]; NaN fails too.
void check_fraction(double value, const char* what) {
  if (!(value > 0.0 && value <= 1.0))
    throw std::invalid_argument(std::string(what) + " must be in (0,1]");
}

std::uint32_t admission_threshold(double f_admit,
                                  std::uint32_t num_distributers) {
  return static_cast<std::uint32_t>(std::ceil(f_admit * num_distributers));
}

/// Floods `tickets` over a built DAG and records every reached vertex.
TicketRun full_run(LevelDag& dag, const Graph& g, VertexId source,
                   std::uint64_t tickets) {
  TicketRun run;
  run.distributer = source;
  run.tickets_sent = tickets;
  run.reached.assign(g.num_vertices(), 0);
  run.tickets_received.assign(g.num_vertices(), 0);
  run.vertices_reached =
      dag.flood(tickets, std::numeric_limits<std::uint64_t>::max(),
                [&](std::uint32_t p, std::uint64_t received) {
                  const VertexId v = dag.vertex(p);
                  run.reached[v] = 1;
                  run.tickets_received[v] = received;
                });
  return run;
}

/// The smallest budget whose flood reaches ceil(reach_fraction * n)
/// vertices of an n-vertex graph, searched as GateKeeper's adaptive
/// bootstrap does: double from 2 until a flood reaches the target, then
/// bisect between the last two doublings. When the doubling passes
/// 64 n + 64 first, the last doubling is returned. The probes only count,
/// and stop once the target is reached.
std::uint64_t minimal_budget(LevelDag& dag, VertexId n,
                             double reach_fraction) {
  const auto target =
      static_cast<std::uint64_t>(std::ceil(reach_fraction * n));
  const std::uint64_t cap = 64ull * n + 64;
  const auto hits = [&](std::uint64_t tickets) {
    return dag.flood(tickets, target, [](std::uint32_t, std::uint64_t) {}) >=
           target;
  };
  std::uint64_t tickets = 2;
  bool hit = hits(tickets);
  while (!hit && tickets < cap) {
    tickets *= 2;
    hit = hits(tickets);
  }
  if (!hit) return tickets;  // cap hit: best effort
  // Excess tickets only leak across attack edges without admitting more
  // honest vertices.
  std::uint64_t lo = tickets / 2, hi = tickets;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (hits(mid)) hi = mid;
    else lo = mid;
  }
  return hi;
}

/// A distributer's minimal budget as stored in the checkpoint.
std::uint64_t checkpointed_budget(const std::string& payload) {
  const json::Value value = json::Value::parse(payload);
  if (!value.is_integer() || value.as_int() < 1)
    throw std::runtime_error(
        "run_gatekeeper: checkpointed ticket budget is not a positive "
        "integer: " +
        payload);
  return static_cast<std::uint64_t>(value.as_int());
}

}  // namespace

TicketRun distribute_tickets(const Graph& g, VertexId source,
                             std::uint64_t tickets) {
  if (source >= g.num_vertices())
    throw std::out_of_range("distribute_tickets: source out of range");
  if (tickets == 0)
    throw std::invalid_argument("distribute_tickets: need >= 1 ticket");
  FrontierBfs runner{g};
  LevelDag dag{g};
  dag.build(runner.run(source));
  return full_run(dag, g, source, tickets);
}

TicketRun adaptive_distribute(const Graph& g, VertexId source,
                              double reach_fraction) {
  check_fraction(reach_fraction, "adaptive_distribute: reach_fraction");
  FrontierBfs runner{g};
  LevelDag dag{g};
  dag.build(runner.run(source));
  return full_run(dag, g, source,
                  minimal_budget(dag, g.num_vertices(), reach_fraction));
}

GateKeeperResult run_gatekeeper(const Graph& g, VertexId controller,
                                const GateKeeperParams& params) {
  if (controller >= g.num_vertices())
    throw std::out_of_range("run_gatekeeper: controller out of range");
  if (params.num_distributers == 0)
    throw std::invalid_argument("run_gatekeeper: need >= 1 distributer");
  check_fraction(params.f_admit, "run_gatekeeper: f_admit");
  check_fraction(params.reach_fraction, "run_gatekeeper: reach_fraction");

  std::uint32_t walk_length = params.sample_walk_length;
  if (walk_length == 0) {
    walk_length = 5;
    for (VertexId x = g.num_vertices(); x > 1; x /= 2) ++walk_length;
  }

  const obs::Span span{"gatekeeper.run", "sybil"};
  // Per-query latency: one admission-control query is one controller asking
  // GateKeeper for a decision — the distribution the serving layer will
  // quote as its p50/p99.
  const obs::Stopwatch query_clock;

  GateKeeperResult out;
  out.threshold = admission_threshold(params.f_admit, params.num_distributers);
  out.admissions.assign(g.num_vertices(), 0);

  RandomWalker walker{g, params.seed};
  out.distributers.reserve(params.num_distributers);
  for (std::uint32_t i = 0; i < params.num_distributers; ++i)
    out.distributers.push_back(walker.walk_endpoint(controller, walk_length));

  obs::ProgressMeter progress{"gatekeeper distributers",
                              params.num_distributers};
  // One budget search per distributer across the pool. Each worker folds
  // the vertices its distributers reach into its own integer tally, and
  // the tallies add up afterwards, so the admissions are identical for any
  // thread count. A distributer's payload is its minimal budget: a resumed
  // run restores the budget and floods once.
  const VertexId n = g.num_vertices();
  struct Worker {
    explicit Worker(const Graph& g)
        : bfs(g), dag(g), tally(g.num_vertices()) {}
    FrontierBfs bfs;
    LevelDag dag;
    std::vector<std::uint32_t> tally;  // distributers that reached each vertex
  };
  std::vector<std::optional<Worker>> workers(
      parallel::plan_workers(out.distributers.size()));
  // Builds distributer i's DAG in the worker's scratch.
  const auto build_dag = [&](std::uint32_t slot, std::size_t i) -> Worker& {
    if (!workers[slot]) workers[slot].emplace(g);
    Worker& w = *workers[slot];
    w.dag.build(w.bfs.run(out.distributers[i]));
    return w;
  };
  // Adds `weight` (modulo 2^32, so a -1 exactly undoes a +1) to the tally
  // of every vertex the built DAG's distributer reaches with `budget`.
  const auto tally_reach = [](Worker& w, std::uint64_t budget,
                              std::uint32_t weight) {
    w.dag.flood(budget, std::numeric_limits<std::uint64_t>::max(),
                [&](std::uint32_t p, std::uint64_t) {
                  w.tally[w.dag.vertex(p)] += weight;
                });
  };

  // budgets[i] = the budget distributer i was tallied with in this run.
  std::vector<std::uint64_t> budgets(out.distributers.size(), 0);
  exec::SweepOptions sweep;
  sweep.kind = "gatekeeper_budget";
  sweep.fault_site = "sybil";
  sweep.token = exec::process_token();
  // Budgets do not depend on f_admit, so a checkpoint serves every f.
  sweep.fingerprint = exec::fingerprint(
      {n, g.num_edges(), params.num_distributers,
       std::bit_cast<std::uint64_t>(params.reach_fraction), params.seed,
       walk_length, controller, exec::graph_fingerprint(g)});
  const exec::SweepResult swept = exec::run_sweep(
      out.distributers.size(), sweep,
      [&](std::size_t i, std::uint32_t slot) {
        Worker& w = build_dag(slot, i);
        const std::uint64_t budget =
            minimal_budget(w.dag, n, params.reach_fraction);
        tally_reach(w, budget, 1);
        budgets[i] = budget;
        progress.tick();
        return json::Value::integer(static_cast<std::int64_t>(budget)).dump();
      });

  // A distributer counts when its payload is in the result. Restored ones
  // were not flooded in this run, and one the sweep failed after it
  // returned (over SNTRUST_SOURCE_BUDGET_MS) was tallied anyway: flood each
  // once more, with weight +1 or -1.
  struct Correction {
    std::size_t index;
    std::uint64_t budget;
    std::uint32_t weight;
  };
  std::vector<Correction> corrections;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const bool counted = !swept.payloads[i].empty();
    if (counted && budgets[i] == 0)
      corrections.push_back({i, checkpointed_budget(swept.payloads[i]), 1});
    else if (!counted && budgets[i] != 0)
      corrections.push_back({i, budgets[i], ~std::uint32_t{0}});
  }
  parallel::parallel_for(
      0, corrections.size(), [&](std::size_t j, std::uint32_t slot) {
        const Correction& c = corrections[j];
        tally_reach(build_dag(slot, c.index), c.budget, c.weight);
      });

  for (const std::optional<Worker>& w : workers)
    if (w)
      for (VertexId v = 0; v < n; ++v) out.admissions[v] += w->tally[v];
  obs::record_latency("gatekeeper.query_ms", query_clock.elapsed_ms());
  return out;
}

namespace {

/// Table-II scores of a finished run at its threshold: fraction of honest
/// vertices admitted and Sybils admitted per attack edge.
GateKeeperEvaluation score(const AttackedGraph& attacked,
                           GateKeeperResult result) {
  GateKeeperEvaluation eval;
  eval.result = std::move(result);

  // Ranking-eval tally over all vertices: integer pair sums are exactly
  // associative, so the map-reduce is thread-count invariant.
  struct Tally {
    std::uint64_t honest = 0;
    std::uint64_t sybil = 0;
  };
  const VertexId n = attacked.graph().num_vertices();
  const Tally tally = parallel::parallel_map_reduce<Tally>(
      0, n, Tally{},
      [&](std::size_t v) {
        Tally t;
        if (eval.result.admitted(static_cast<VertexId>(v))) {
          if (attacked.is_sybil(static_cast<VertexId>(v))) t.sybil = 1;
          else t.honest = 1;
        }
        return t;
      },
      [](Tally a, Tally b) {
        a.honest += b.honest;
        a.sybil += b.sybil;
        return a;
      },
      /*grain=*/8192);
  const std::uint64_t honest_admitted = tally.honest;
  const std::uint64_t sybil_admitted = tally.sybil;
  eval.honest_accept_fraction =
      static_cast<double>(honest_admitted) / attacked.num_honest();
  eval.sybils_per_attack_edge = static_cast<double>(sybil_admitted) /
                                attacked.num_attack_edges();
  // Diagnostics (SNTRUST_DIAG): admission is a Bernoulli trial per vertex,
  // so the acceptance rates carry Wilson CI95s over the trial counts. The
  // tallies above are already thread-count invariant; recording them here
  // observes but never perturbs the measurement.
  if (obs::diag_enabled()) {
    obs::DiagRegistry::instance().record_estimate(
        "gatekeeper.honest_accept",
        obs::wilson_ci95(honest_admitted, attacked.num_honest()));
    const std::uint64_t num_sybils =
        attacked.graph().num_vertices() - attacked.num_honest();
    if (num_sybils > 0)
      obs::DiagRegistry::instance().record_estimate(
          "gatekeeper.sybil_accept",
          obs::wilson_ci95(sybil_admitted, num_sybils));
  }
  return eval;
}

void check_honest_controller(const AttackedGraph& attacked,
                             VertexId controller) {
  if (controller >= attacked.num_honest())
    throw std::invalid_argument(
        "evaluate_gatekeeper: controller must be honest");
}

}  // namespace

GateKeeperEvaluation evaluate_gatekeeper(const AttackedGraph& attacked,
                                         VertexId controller,
                                         const GateKeeperParams& params) {
  check_honest_controller(attacked, controller);
  const obs::Span span{"gatekeeper.evaluate", "sybil"};
  const obs::Stopwatch eval_clock;
  GateKeeperEvaluation eval =
      score(attacked, run_gatekeeper(attacked.graph(), controller, params));
  obs::record_latency("gatekeeper.eval_ms", eval_clock.elapsed_ms());
  return eval;
}

std::vector<GateKeeperEvaluation> evaluate_gatekeeper(
    const AttackedGraph& attacked, VertexId controller,
    const GateKeeperParams& params, const std::vector<double>& f_admits) {
  check_honest_controller(attacked, controller);
  if (f_admits.empty())
    throw std::invalid_argument(
        "evaluate_gatekeeper: need >= 1 admission fraction");
  for (const double f : f_admits)
    check_fraction(f, "evaluate_gatekeeper: f_admit");
  const obs::Span span{"gatekeeper.evaluate", "sybil"};
  const obs::Stopwatch eval_clock;
  GateKeeperParams run_params = params;
  run_params.f_admit = f_admits.front();
  const GateKeeperResult run =
      run_gatekeeper(attacked.graph(), controller, run_params);
  std::vector<GateKeeperEvaluation> evals;
  evals.reserve(f_admits.size());
  for (const double f : f_admits) {
    GateKeeperResult at_f = run;
    at_f.threshold = admission_threshold(f, params.num_distributers);
    evals.push_back(score(attacked, std::move(at_f)));
  }
  obs::record_latency("gatekeeper.eval_ms", eval_clock.elapsed_ms());
  return evals;
}

}  // namespace sntrust
