// Ablation A8: formal attacker models (the paper's Sec.-VI open problem).
// The same attack-edge budget is placed with increasing social
// intelligence — uniformly at random (Table II's model), on hubs
// (degree-proportional), into a single community, and directly around the
// defense's trusted node — and two walk-based defenses plus the ranking AUC
// are measured against each.
#include <iostream>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "sybil/attack.hpp"
#include "sybil/gatekeeper.hpp"
#include "sybil/sybilrank.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A8: attacker edge-placement strategies"};

  const Graph honest =
      bench::dataset_graph(dataset_by_id("wiki_vote"), 0.3);
  std::cout << "Wiki-vote analogue, n=" << honest.num_vertices()
            << "; Sybil region n/4 behind n/60 attack edges; trusted node "
               "0.\n\n";

  Table table{{"strategy", "GateKeeper honest", "GateKeeper sybil/edge",
               "SybilRank AUC", "SybilRank sybil/edge"}};

  const std::pair<AttackStrategy, const char*> strategies[] = {
      {AttackStrategy::kRandom, "random (Table II)"},
      {AttackStrategy::kTargetHubs, "hub infiltration"},
      {AttackStrategy::kSingleRegion, "single community"},
      {AttackStrategy::kNearSeed, "around trusted node"},
  };
  for (const auto& [strategy, name] : strategies) {
    AttackParams attack;
    attack.num_sybils = honest.num_vertices() / 4;
    attack.attack_edges =
        std::max<std::uint32_t>(20, honest.num_vertices() / 60);
    attack.strategy = strategy;
    attack.target = 0;
    attack.seed = bench::kBenchSeed;
    const AttackedGraph attacked{honest, attack};

    GateKeeperParams gk;
    gk.num_distributers = 50;
    gk.f_admit = 0.1;
    gk.seed = bench::kBenchSeed;
    const GateKeeperEvaluation gk_eval = evaluate_gatekeeper(attacked, 0, gk);

    const SybilRankResult rank = run_sybilrank(attacked.graph(), {0});
    const double auc = ranking_auc(rank.ranking, attacked);
    const PairwiseEvaluation rank_eval = evaluate_sybilrank(attacked, {0});

    table.add_row({name, fixed(100 * gk_eval.honest_accept_fraction, 1) + "%",
                   fixed(gk_eval.sybils_per_attack_edge, 2), fixed(auc, 3),
                   fixed(rank_eval.sybils_per_attack_edge, 2)});
    std::cerr << "  " << name << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: random placement is close to the defenses' "
               "best case. Hub infiltration does NOT beat it against "
               "GateKeeper — a hub splits its tickets across many edges, "
               "diluting the per-edge crossing. Capturing a single "
               "community is the strongest attack on GateKeeper (several "
               "times the random-attacker leakage: the distributers' "
               "tickets funnel through the captured ball), and placing "
               "edges around the trusted node is the only strategy that "
               "dents single-seed SybilRank — quantifying how much Table "
               "II's numbers depend on the random-attacker assumption.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
