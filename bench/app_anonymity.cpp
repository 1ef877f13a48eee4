// Application experiment: anonymity of walk-based mixing over social graphs
// (the paper's ref [8]). Prints the entropy-vs-hops trajectory per dataset
// class and the hop count needed to reach 90% of maximal entropy — the
// anonymous-communication reading of Fig. 1.
#include <iostream>
#include <vector>

#include "anon/social_mix.hpp"
#include "bench_common.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Application: walk-based anonymity on social graphs"};

  SeriesSet figure{"hops"};
  Table table{{"Dataset", "n", "class", "hops to 90% max entropy"}};
  for (const char* id :
       {"wiki_vote", "epinion", "enron", "physics_1", "physics_2",
        "facebook_a"}) {
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph g =
        bench::dataset_graph(spec, 0.25);

    // Entropy trajectory from one representative sender (vertex 0).
    const AnonymityCurve curve =
        measure_anonymity(g, 0, 60, /*lazy=*/true);
    std::vector<double> x, y;
    for (std::uint32_t t = 0; t <= 60; t += 5) {
      x.push_back(t);
      y.push_back(curve.entropy_bits[t] / curve.max_entropy_bits);
    }
    figure.add_series(spec.name, x, y);

    const AnonymityTime time =
        anonymity_time(g, 0.9, 6, 400, bench::kBenchSeed);
    table.add_row({spec.name, with_thousands(g.num_vertices()),
                   to_string(spec.expected_class),
                   time.reached == time.senders.size()
                       ? fixed(time.mean_hops, 1)
                       : "> 400 for " +
                             std::to_string(time.senders.size() - time.reached) +
                             "/" + std::to_string(time.senders.size()) +
                             " senders"});
    std::cerr << "  " << id << " done\n";
  }

  std::cout << "Normalized entropy (fraction of log2 n) per hop:\n";
  figure.print(std::cout);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "Expected shape: weak-trust graphs reach ~90% of maximal "
               "entropy within tens of hops; strict-trust graphs leak the "
               "sender's community for hundreds — the anonymity reading of "
               "the paper's mixing split.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
