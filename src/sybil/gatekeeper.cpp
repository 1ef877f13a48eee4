#include "sybil/gatekeeper.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "markov/walker.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

/// One distributer's BFS level DAG, which is all a ticket flood reads.
/// Reachable vertices sit at positions in the discovery order of a top-down
/// BFS, so each level is a contiguous range of positions, and each vertex's
/// forward children, its next-level neighbours in adjacency order, are
/// stored as positions. Order within a level cannot change a flood: a
/// level's holdings are integer sums of grants from the level above. A flood
/// is one forward pass over a position-indexed holding array, level by
/// level. Bitmaps over positions mark those with children and those that
/// hold tickets, so a flood counts a word of reached positions at once and
/// visits only those that can forward tickets. The buffers are sized once
/// for any DAG of the graph and reused across builds; the ones a build
/// fills are left uninitialized, so a worker's memory grows only with the
/// DAGs it builds.
class LevelDag {
 public:
  explicit LevelDag(const Graph& g)
      : graph_(g),
        position_(g.num_vertices(), kUnseen),
        order_(std::make_unique_for_overwrite<VertexId[]>(g.num_vertices())),
        child_begin_(std::make_unique_for_overwrite<EdgeIndex[]>(
            g.num_vertices() + std::size_t{1})),
        children_(std::make_unique_for_overwrite<std::uint32_t[]>(
            g.targets().size())),
        level_begin_(std::make_unique_for_overwrite<std::uint32_t[]>(
            g.num_vertices() + std::size_t{1})),
        parents_(std::make_unique_for_overwrite<std::uint64_t[]>(
            words(g.num_vertices()))),
        occupied_(words(g.num_vertices()), 0),
        ticket_runs_(obs::metrics_counter("gatekeeper.ticket_runs")),
        tickets_sent_(obs::metrics_counter("gatekeeper.tickets_sent")),
        ticket_walks_(obs::metrics_counter("gatekeeper.ticket_walks")) {}

  /// Rebuilds the DAG from `source` in one top-down pass over its reachable
  /// adjacency. Vertices take positions as they are first seen, so a
  /// neighbour is a child exactly when its position is at or past the end
  /// of the current level.
  void build(VertexId source) {
    for (std::size_t p = 0; p < reachable_; ++p) position_[order_[p]] = kUnseen;
    const EdgeIndex* const offsets = graph_.offsets().data();
    const VertexId* const targets = graph_.targets().data();
    std::uint32_t* const position = position_.data();
    VertexId* const order = order_.get();
    std::uint32_t* const children = children_.get();
    order[0] = source;
    position[source] = 0;
    child_begin_[0] = 0;
    std::size_t reachable = 1;
    EdgeIndex num_children = 0;
    std::uint64_t parents = 0;  // bits of the word of parents_ being filled
    levels_ = 0;
    for (std::size_t begin = 0; begin < reachable; ++levels_) {
      level_begin_[levels_] = static_cast<std::uint32_t>(begin);
      const auto next = static_cast<std::uint32_t>(reachable);
      for (std::size_t p = begin; p < next; ++p) {
        // Rows are read in position order, a random order in the CSR:
        // fetch the offsets of the vertex 16 positions ahead and the row of
        // the vertex 8 ahead, of the positions discovered so far.
        __builtin_prefetch(offsets + order[std::min(p + 16, reachable - 1)]);
        __builtin_prefetch(
            targets + offsets[order[std::min(p + 8, reachable - 1)]]);
        const VertexId u = order[p];
        for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
          const VertexId w = targets[e];
          std::uint32_t q = position[w];
          if (q == kUnseen) {
            q = static_cast<std::uint32_t>(reachable++);
            position[w] = q;
            order[q] = w;
          }
          // Fewer child entries than half-edges read so far: in bounds.
          children[num_children] = q;
          num_children += q >= next;
        }
        parents |= std::uint64_t{num_children != child_begin_[p]} << (p % 64);
        parents_[p / 64] = parents;
        if (p % 64 == 63) parents = 0;
        child_begin_[p + 1] = num_children;
      }
      begin = next;
    }
    level_begin_[levels_] = static_cast<std::uint32_t>(reachable);
    reachable_ = reachable;
    num_children_ = num_children;
    holding_.assign(reachable, 0);
    held_ = false;
  }

  /// Positions plus child entries: the most one flood reads.
  std::uint64_t size() const { return reachable_ + num_children_; }
  std::uint64_t levels() const { return levels_; }

  /// True when a flood of `tickets` reaches `target` vertices. The probe
  /// stops there and leaves nothing held.
  bool reaches(std::uint64_t tickets, std::uint64_t target) {
    return flood<false>(tickets, target) >= target;
  }

  /// Floods `tickets` and keeps every vertex's holding, the tickets it
  /// received, for add_tickets and for_each_reached. Returns the number
  /// reached.
  std::uint64_t hold(std::uint64_t tickets) {
    return flood<true>(tickets, std::numeric_limits<std::uint64_t>::max());
  }

  /// Adds tickets at the source of a held flood that reached `reached`
  /// vertices, one at a time, until `target` are reached, and returns how
  /// many were added, or nothing when `limit` tickets were added first. A
  /// vertex holding h passes the (h + 1)-th ticket it receives to child
  /// (h - 1) mod k, the one whose share of its forwarded tickets grows, so
  /// each added ticket changes exactly one path, one level per step. The
  /// path ends at the first vertex that held no tickets, which is newly
  /// reached, or at a vertex without children, where the ticket is lost.
  std::optional<std::uint64_t> add_tickets(std::uint64_t reached,
                                           std::uint64_t target,
                                           std::uint64_t limit) {
    assert(held_);
    std::uint64_t* const holding = holding_.data();
    std::uint64_t added = 0;
    for (; reached < target; ++added) {
      if (added == limit) {
        ticket_walks_.add(added);
        return std::nullopt;
      }
      for (std::uint32_t p = 0;;) {
        const std::uint64_t h = holding[p]++;
        if (h == 0) {
          ++reached;
          break;
        }
        const EdgeIndex begin = child_begin_[p];
        const std::uint64_t k = child_begin_[p + 1] - begin;
        if (k == 0) break;
        p = children_[begin + (h - 1) % k];
      }
    }
    ticket_walks_.add(added);
    return added;
  }

  /// Calls on_reached(vertex, tickets received) for every vertex the held
  /// flood reached, in position order.
  template <typename OnReached>
  void for_each_reached(OnReached&& on_reached) const {
    assert(held_);
    for (std::size_t p = 0; p < reachable_; ++p)
      if (holding_[p] != 0) on_reached(order_[p], holding_[p]);
  }

 private:
  static constexpr std::uint32_t kUnseen =
      std::numeric_limits<std::uint32_t>::max();

  /// Floods `tickets` from the source at position 0. A vertex holding h
  /// tickets consumes one and splits the other h - 1 evenly over its
  /// children, the first (h - 1) mod k of its k children getting one more;
  /// tickets that reach a vertex without children are lost. Returns the
  /// number of vertices that consume a ticket. A level's holdings are final
  /// once the level above has granted, so each word of a level's positions
  /// counts its holders at once and grants from those with children, in
  /// position order. A probe (kHold false) stops once `stop_at` vertices
  /// are reached, and returns `stop_at` then; it leaves every holding zero.
  /// A held flood keeps every holding.
  template <bool kHold>
  std::uint64_t flood(std::uint64_t tickets, std::uint64_t stop_at) {
    if (held_) std::fill(holding_.begin(), holding_.end(), 0);
    held_ = kHold;
    ticket_runs_.add(1);
    tickets_sent_.add(tickets);
    std::uint64_t* const holding = holding_.data();
    std::uint64_t* const occupied = occupied_.data();
    const EdgeIndex* const child_begin = child_begin_.get();
    const std::uint32_t* const children = children_.get();
    holding[0] = tickets;
    occupied[0] = tickets != 0;
    std::uint64_t reached = 0;
    std::uint32_t last = 0;  // furthest position that holds tickets
    for (std::uint64_t level = 0;
         level < levels_ && level_begin_[level] <= last; ++level) {
      const std::size_t end = level_begin_[level + 1];
      for (std::size_t word = level_begin_[level] / 64; word * 64 < end;
           ++word) {
        // The word's positions in this level; the rest are the next one's.
        const std::uint64_t in_level =
            end - word * 64 >= 64 ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << (end % 64)) - 1;
        const std::uint64_t holders = occupied[word] & in_level;
        if (holders == 0) continue;
        occupied[word] &= ~in_level;
        reached += static_cast<std::uint64_t>(std::popcount(holders));
        if (!kHold && reached >= stop_at) {
          std::fill(occupied + word, occupied + last / 64 + 1, 0);
          std::fill(holding, holding + last + 1, 0);
          return stop_at;
        }
        for (std::uint64_t forwarders = holders & parents_[word];
             forwarders != 0; forwarders &= forwarders - 1) {
          const auto p = static_cast<std::uint32_t>(
              word * 64 + static_cast<unsigned>(std::countr_zero(forwarders)));
          const std::uint64_t budget = holding[p] - 1;  // one is consumed
          if (budget == 0) continue;
          const EdgeIndex begin = child_begin[p];
          const std::uint64_t k = child_begin[p + 1] - begin;
          const std::uint64_t share = budget / k;
          const std::uint64_t extra = budget % k;
          const std::uint64_t granted = share == 0 ? extra : k;
          for (std::uint64_t i = 0; i < granted; ++i) {
            const std::uint32_t child = children[begin + i];
            holding[child] += share + (i < extra ? 1 : 0);
            occupied[child / 64] |= std::uint64_t{1} << (child % 64);
            last = std::max(last, child);
          }
        }
      }
    }
    if constexpr (!kHold) std::fill(holding, holding + last + 1, 0);
    return reached;
  }

  static std::size_t words(VertexId n) { return (std::size_t{n} + 63) / 64; }

  const Graph& graph_;
  std::vector<std::uint32_t> position_;      // vertex -> position, or kUnseen
  std::unique_ptr<VertexId[]> order_;        // position -> vertex
  std::unique_ptr<EdgeIndex[]> child_begin_; // p's children: [p] to [p + 1]
  std::unique_ptr<std::uint32_t[]> children_;  // child positions
  std::unique_ptr<std::uint32_t[]> level_begin_;  // level l: [l] to [l + 1]
  std::unique_ptr<std::uint64_t[]> parents_;  // bit p: p has children
  std::vector<std::uint64_t> occupied_;  // bit p: position p holds tickets
  std::vector<std::uint64_t> holding_;       // tickets held, per position
  std::size_t reachable_ = 0;                // positions of the built DAG
  EdgeIndex num_children_ = 0;
  std::uint64_t levels_ = 0;
  bool held_ = false;  // a held flood's holdings remain
  obs::Counter& ticket_runs_;
  obs::Counter& tickets_sent_;
  obs::Counter& ticket_walks_;
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

/// The held flood of `tickets` from `source` as a TicketRun.
TicketRun held_run(const LevelDag& dag, const Graph& g, VertexId source,
                   std::uint64_t tickets) {
  TicketRun run;
  run.distributer = source;
  run.tickets_sent = tickets;
  run.reached.assign(g.num_vertices(), 0);
  run.tickets_received.assign(g.num_vertices(), 0);
  dag.for_each_reached([&](VertexId v, std::uint64_t received) {
    run.reached[v] = 1;
    run.tickets_received[v] = received;
    ++run.vertices_reached;
  });
  return run;
}

/// Step 0 of hold_minimal_budget: the minimal budget proven from `hint`,
/// or nothing, when the proof fails and the cold search must run. With w
/// the DAG's size over its level count, the bracket width the cold search
/// bisects down to, and the slack s = max(1, w / 4), the flood at
/// lo = max(2, hint - s) is held, and tickets are added one at a time
/// until the target is reached. Reach never falls as the budget grows, so
/// when lo misses, the first budget that reaches is the minimal one, and
/// the holdings are its flood. When lo is the floor of 2 and reaches, 2 is
/// the budget. The proof fails for a hint below 2 or above the cap, when a
/// lo above the floor already reaches, and when w added tickets (at most
/// one flood's size in steps) or the cap run out first. So a hint from b*
/// to b* + s - 1, for minimal budget b*, costs one flood and at most s
/// added tickets. On the Epinion analogue s is 6,900-9,100, above the
/// largest move of an unchanged distributer's budget across a churn batch,
/// 5,647 (EXPERIMENTS.md, "GateKeeper cost").
std::optional<std::uint64_t> hold_hinted_budget(LevelDag& dag,
                                                std::uint64_t target,
                                                std::uint64_t cap,
                                                std::uint64_t hint) {
  if (hint < 2 || hint > cap) return std::nullopt;
  const std::uint64_t width = dag.size() / dag.levels();
  const std::uint64_t slack = std::max<std::uint64_t>(1, width / 4);
  const std::uint64_t lo = hint - 2 > slack ? hint - slack : 2;
  const std::uint64_t reached = dag.hold(lo);
  if (reached >= target) {
    if (lo == 2) return lo;
    return std::nullopt;
  }
  const std::optional<std::uint64_t> added =
      dag.add_tickets(reached, target, std::min(width, cap - lo));
  if (!added) return std::nullopt;
  return lo + *added;
}

/// The smallest budget whose flood reaches ceil(reach_fraction * n)
/// vertices of an n-vertex graph, as GateKeeper's adaptive bootstrap
/// defines it: budgets double from 2 until a flood reaches the target, and
/// the budget is the smallest that does, but not below 2. When the doubling
/// passes 64 n + 64 first, it is the last doubling. Leaves the DAG holding
/// the flood at that budget. A hint is verified first (step 0,
/// hold_hinted_budget); it returns only a proven budget that is at most
/// the cap, which the doubling reaches without passing the cap, so it is
/// the search's answer. Otherwise the search takes three exact steps, using
/// that reach never falls as the budget grows:
///   1. Every reached vertex consumes a ticket, so doublings below the
///      target miss and are not flooded.
///   2. Count-only probes bisect the bracket while it is wider than the
///      DAG's size over its level count.
///   3. The bracket's lower end is held, and tickets are added one at a time
///      until the target is reached. Each costs at most one step per level,
///      so the bracket left by step 2 costs at most one flood's size.
/// Excess tickets only leak across attack edges without admitting more
/// honest vertices.
std::uint64_t hold_minimal_budget(LevelDag& dag, VertexId n,
                                  double reach_fraction,
                                  std::optional<std::uint64_t> hint) {
  const auto target =
      static_cast<std::uint64_t>(std::ceil(reach_fraction * n));
  const std::uint64_t cap = 64ull * n + 64;
  if (hint)
    if (const std::optional<std::uint64_t> budget =
            hold_hinted_budget(dag, target, cap, *hint))
      return *budget;
  std::uint64_t hi = std::max<std::uint64_t>(2, std::bit_ceil(target));
  while (!dag.reaches(hi, target)) {
    if (hi >= cap) {  // cap hit: best effort
      dag.hold(hi);
      return hi;
    }
    hi *= 2;
  }
  // lo is below the target or a doubling that missed, so it misses, except
  // at the floor: when hi is 2, one ticket may do.
  std::uint64_t lo = hi / 2;
  const std::uint64_t width = dag.size() / dag.levels();
  while (hi - lo > width) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (dag.reaches(mid, target)) hi = mid;
    else lo = mid;
  }
  if (hi - lo == 1) {  // hi is the budget, and the floor holds
    dag.hold(hi);
    return hi;
  }
  return lo + *dag.add_tickets(dag.hold(lo), target, hi - lo);
}

/// A distributer's minimal budget as stored in the checkpoint: one word,
/// at least 1.
std::uint64_t checkpointed_budget(std::size_t i, const exec::Record& record) {
  if (record.size() != 1 || record[0] < 1)
    throw std::runtime_error(
        "run_gatekeeper: checkpointed ticket budget of distributer " +
        std::to_string(i) + " is not one word of at least 1");
  return record[0];
}

}  // namespace

TicketRun distribute_tickets(const Graph& g, VertexId source,
                             std::uint64_t tickets) {
  if (source >= g.num_vertices())
    throw std::out_of_range("distribute_tickets: source out of range");
  if (tickets == 0)
    throw std::invalid_argument("distribute_tickets: need >= 1 ticket");
  LevelDag dag{g};
  dag.build(source);
  dag.hold(tickets);
  return held_run(dag, g, source, tickets);
}

TicketRun adaptive_distribute(const Graph& g, VertexId source,
                              double reach_fraction,
                              std::optional<std::uint64_t> budget_hint) {
  check_fraction(reach_fraction, "adaptive_distribute: reach_fraction");
  if (source >= g.num_vertices())
    throw std::out_of_range("adaptive_distribute: source out of range");
  LevelDag dag{g};
  dag.build(source);
  const std::uint64_t budget =
      hold_minimal_budget(dag, g.num_vertices(), reach_fraction, budget_hint);
  return held_run(dag, g, source, budget);
}

GateKeeperResult run_gatekeeper(const Graph& g, VertexId controller,
                                const GateKeeperParams& params,
                                const GateKeeperHints& hints) {
  if (controller >= g.num_vertices())
    throw std::out_of_range("run_gatekeeper: controller out of range");
  if (params.num_distributers == 0)
    throw std::invalid_argument("run_gatekeeper: need >= 1 distributer");
  check_fraction(params.f_admit, "run_gatekeeper: f_admit");
  check_fraction(params.reach_fraction, "run_gatekeeper: reach_fraction");
  if (hints.distributers.size() != hints.budgets.size())
    throw std::invalid_argument(
        "run_gatekeeper: hints need one budget per distributer");

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

  // One budget search per distributer across the pool. Each worker folds
  // the vertices its distributers reach into its own integer tally, and
  // the tallies add up afterwards, so the admissions are identical for any
  // thread count. A distributer's record is its minimal budget: a resumed
  // run restores the budget and floods once.
  const VertexId n = g.num_vertices();
  out.budgets.assign(out.distributers.size(), 0);
  const auto hint = [&](std::size_t i) -> std::optional<std::uint64_t> {
    if (i < hints.distributers.size() &&
        hints.distributers[i] == out.distributers[i])
      return hints.budgets[i];
    return std::nullopt;
  };
  struct Worker {
    explicit Worker(const Graph& g) : dag(g), tally(g.num_vertices()) {}
    LevelDag dag;
    std::vector<std::uint32_t> tally;  // distributers that reached each vertex
  };
  std::vector<std::optional<Worker>> workers(
      parallel::plan_workers(out.distributers.size()));
  // Builds distributer i's DAG in the worker's scratch.
  const auto build_dag = [&](std::uint32_t slot, std::size_t i) -> Worker& {
    if (!workers[slot]) workers[slot].emplace(g);
    Worker& w = *workers[slot];
    w.dag.build(out.distributers[i]);
    return w;
  };
  // Counts every vertex the DAG's held flood reached.
  const auto tally_held = [](Worker& w) {
    w.dag.for_each_reached([&](VertexId v, std::uint64_t) { ++w.tally[v]; });
  };

  // flooded[i] = 1 once distributer i was searched and tallied in this run.
  std::vector<std::uint8_t> flooded(out.distributers.size(), 0);
  exec::SweepOptions sweep;
  sweep.kind = "gatekeeper_budget";
  // Budgets do not depend on f_admit, so a checkpoint serves every f. The
  // graph's fingerprint is an O(n + m) scan: only a checkpoint reads it.
  if (exec::CheckpointStore::instance().armed())
    sweep.fingerprint = exec::fingerprint(
        {n, g.num_edges(), params.num_distributers,
         std::bit_cast<std::uint64_t>(params.reach_fraction), params.seed,
         walk_length, controller, g.fingerprint()});
  const exec::SweepResult swept = exec::run_sweep(
      out.distributers.size(), sweep,
      [&](std::size_t i, std::uint32_t slot) {
        Worker& w = build_dag(slot, i);
        const std::uint64_t budget =
            hold_minimal_budget(w.dag, n, params.reach_fraction, hint(i));
        tally_held(w);
        flooded[i] = 1;
        out.budgets[i] = budget;
        return exec::Record{budget};
      });

  // Restored distributers were not flooded in this run: flood each once,
  // at its checkpointed budget.
  std::vector<std::pair<std::size_t, std::uint64_t>> restored;
  for (std::size_t i = 0; i < flooded.size(); ++i)
    if (!flooded[i])
      restored.emplace_back(i, checkpointed_budget(i, swept.records[i]));
  parallel::parallel_for(
      0, restored.size(), [&](std::size_t j, std::uint32_t slot) {
        const auto [i, budget] = restored[j];
        Worker& w = build_dag(slot, i);
        w.dag.hold(budget);
        tally_held(w);
        out.budgets[i] = budget;
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
