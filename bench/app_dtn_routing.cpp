// Application experiment: SimBet-style DTN routing (the paper's ref [2]) on
// the dataset analogues — delivery ratio and hop count of the
// betweenness+similarity policy against similarity-only and random
// forwarding.
#include <iostream>

#include "bench_common.hpp"
#include "dtn/simbet.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Application: SimBet DTN routing on social graphs"};

  Table table{{"Dataset", "n", "policy", "delivery", "mean hops"}};
  for (const char* id :
       {"rice_grad", "physics_1", "wiki_vote", "facebook_a"}) {
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph g =
        bench::dataset_graph(spec, 0.2);

    bool first = true;
    for (const DtnPolicy policy :
         {DtnPolicy::kSimBet, DtnPolicy::kSimilarityOnly, DtnPolicy::kRandom}) {
      DtnParams params;
      params.policy = policy;
      params.ttl = 32;
      params.seed = bench::kBenchSeed;
      const DtnOutcome outcome = simulate_dtn_routing(g, 500, params);
      const char* name = policy == DtnPolicy::kSimBet ? "SimBet"
                         : policy == DtnPolicy::kSimilarityOnly
                             ? "Similarity"
                             : "Random";
      table.add_row({first ? spec.name : "",
                     first ? with_thousands(g.num_vertices()) : "", name,
                     fixed(100 * outcome.delivery_ratio, 1) + "%",
                     fixed(outcome.mean_hops, 2)});
      first = false;
    }
    std::cerr << "  " << id << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: the social-utility policies beat random "
               "forwarding everywhere; the betweenness term matters most on "
               "community-fragmented (strict-trust) graphs, where messages "
               "must climb to bridging carriers.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
