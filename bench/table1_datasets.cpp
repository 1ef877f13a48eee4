// Table I: datasets, their sizes, and the second largest eigenvalue mu of
// the transition matrix — regenerated over the synthetic analogues.
//
// Paper values are printed alongside (where legible in the source text) so
// the class ordering can be compared: weak-trust graphs (Wiki-vote, Epinion,
// Slashdot) get clearly smaller mu than strict-trust graphs (Physics, DBLP,
// Facebook), whose mu approaches 1.
#include <iostream>

#include "bench_common.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Table I: dataset inventory and SLEM (mu)"};

  Table table{{"Dataset", "Nodes", "Edges", "mu (measured)", "mu (paper)",
               "class"}};
  for (const DatasetSpec& spec : all_datasets()) {
    bench::DatasetTimer dataset_timer;
    const Graph g = bench::dataset_graph(spec);
    SlemOptions options;
    options.seed = bench::kBenchSeed;
    const SlemResult slem = second_largest_eigenvalue(g, options);
    table.add_row({spec.name, with_thousands(g.num_vertices()),
                   with_thousands(g.num_edges()), fixed(slem.mu, 4),
                   spec.paper_mu ? fixed(*spec.paper_mu, 3) : "n/a",
                   to_string(spec.expected_class)});
    std::cerr << "  measured " << spec.id << "\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: strict-trust (slow) analogues cluster near "
               "mu ~= 1; weak-trust (fast) analogues sit clearly lower.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
