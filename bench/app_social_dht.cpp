// Application experiment: Whanau-style Sybil-proof DHT on fast- vs
// slow-mixing analogues (the paper's refs [3], [10] motivate exactly this
// deployment). Reported per dataset: clean lookup success, success under a
// Sybil region, and the routing-table poison rate — the quantity the
// fast-mixing assumption bounds.
#include <iostream>

#include "bench_common.hpp"
#include "dht/social_dht.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Application: social-network DHT (Whanau-style)"};

  Table table{{"Dataset", "n", "class", "clean lookup", "attacked lookup",
               "table poison", "bound w*g/2m"}};
  for (const char* id : {"wiki_vote", "epinion", "physics_1", "physics_2",
                         "facebook_a"}) {
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph honest =
        bench::dataset_graph(spec, 0.15);

    // Same *relative* attack intensity on every dataset, so the poison rate
    // differences reflect the graph's mixing class, not the edge budget.
    AttackParams attack;
    attack.num_sybils = honest.num_vertices() / 4;
    attack.attack_edges =
        std::max<std::uint32_t>(5, honest.num_vertices() / 100);
    attack.seed = bench::kBenchSeed;
    const AttackedGraph attacked{honest, attack};

    SocialDhtParams params;
    params.table_size = 64;
    params.lookup_fanout = 8;
    params.seed = bench::kBenchSeed;
    const SocialDhtEvaluation eval =
        evaluate_social_dht(honest, attacked, params, 400);

    // Whanau's security argument: a w-step walk from an honest vertex
    // escapes into the Sybil region with probability at most ~ w * g / 2m,
    // independent of the Sybil population.
    std::uint32_t walk_length = 3;
    for (VertexId x = attacked.graph().num_vertices(); x > 1; x /= 2)
      ++walk_length;
    const double bound =
        static_cast<double>(walk_length) * attacked.num_attack_edges() /
        (2.0 * static_cast<double>(attacked.graph().num_edges()));

    table.add_row({spec.name, with_thousands(honest.num_vertices()),
                   to_string(spec.expected_class),
                   fixed(100 * eval.clean_success, 1) + "%",
                   fixed(100 * eval.attacked_success, 1) + "%",
                   fixed(100 * eval.poison_rate, 1) + "%",
                   fixed(100 * bound, 1) + "%"});
    std::cerr << "  " << id << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: clean success is high everywhere (ring keys "
               "are uniform hashes); the Sybil region holds 25% of the "
               "combined graph's identities, yet the poison rate stays at "
               "the w*g/2m escape bound — the routing tables are protected "
               "by the attack-edge budget, which is exactly what the "
               "paper's mixing measurements underwrite.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
