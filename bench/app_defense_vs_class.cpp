// The paper's overall thesis, end-to-end: the quality of the measured
// properties (mixing / expansion / cores) decides how well the defenses
// work. Runs GateKeeper and SybilRank with identical parameters across six
// analogues spanning the classes and prints defense quality next to mu —
// slow mixers should pay in honest acceptance and/or Sybil leakage.
#include <iostream>

#include "bench_common.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "sybil/attack.hpp"
#include "sybil/gatekeeper.hpp"
#include "sybil/sybilrank.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Application: defense quality across graph classes"};

  Table table{{"Dataset", "class", "mu", "GK honest", "GK sybil/edge",
               "SR AUC", "SR honest"}};
  for (const char* id : {"wiki_vote", "epinion", "enron", "physics_1",
                         "physics_2", "facebook_a"}) {
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph honest =
        bench::dataset_graph(spec, 0.15);

    const SlemResult slem = second_largest_eigenvalue(honest);

    AttackParams attack;
    attack.num_sybils = honest.num_vertices() / 4;
    attack.attack_edges =
        std::max<std::uint32_t>(10, honest.num_vertices() / 200);
    attack.seed = bench::kBenchSeed;
    const AttackedGraph attacked{honest, attack};

    GateKeeperParams gk;
    gk.num_distributers = 50;
    gk.f_admit = 0.1;
    gk.seed = bench::kBenchSeed;
    const GateKeeperEvaluation gk_eval = evaluate_gatekeeper(attacked, 0, gk);

    const SybilRankResult rank = run_sybilrank(attacked.graph(), {0, 1, 2});
    const double auc = ranking_auc(rank.ranking, attacked);
    const PairwiseEvaluation sr_eval = evaluate_sybilrank(attacked, {0, 1, 2});

    table.add_row({spec.name, to_string(spec.expected_class),
                   format_mu(slem.mu, slem.certified, 4),
                   fixed(100 * gk_eval.honest_accept_fraction, 1) + "%",
                   fixed(gk_eval.sybils_per_attack_edge, 2), fixed(auc, 3),
                   fixed(100 * sr_eval.honest_accept_fraction, 1) + "%"});
    std::cerr << "  " << id << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: defense quality degrades as mu -> 1 — the "
               "fast weak-trust graphs give high honest acceptance and "
               "near-perfect rankings; the Physics-class slow mixers lose "
               "honest users and leak more Sybils per edge. This is the "
               "paper's bottom line: the property quality, not the defense "
               "design, is the binding constraint.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
