// Prints the full Table-I-style inventory: every registered dataset
// analogue with its paper metadata and (optionally) freshly measured
// structural statistics.
//
//   ./dataset_report          # metadata only (instant)
//   ./dataset_report measure  # also generate at small scale and measure
#include <iostream>
#include <string>

#include "example_main.hpp"
#include "gen/datasets.hpp"
#include "graph/stats.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

int run(bool measure) {
  using namespace sntrust;
  if (!measure) {
    Table table{{"id", "name", "paper nodes", "paper edges", "paper mu",
                 "class", "social model"}};
    for (const DatasetSpec& spec : all_datasets()) {
      table.add_row({spec.id, spec.name, with_thousands(spec.paper_nodes),
                     with_thousands(spec.paper_edges),
                     spec.paper_mu ? fixed(*spec.paper_mu, 3) : "n/a",
                     to_string(spec.expected_class), spec.social_model});
    }
    table.print(std::cout);
    std::cout << "\nRun with 'measure' to generate each analogue at 10% "
                 "scale and measure it.\n";
    return 0;
  }

  Table table{{"name", "nodes", "edges", "mean deg", "clustering", "mu",
               "class"}};
  for (const DatasetSpec& spec : all_datasets()) {
    const Graph g = spec.generate(0.1, 4);
    const DegreeStats degrees = degree_stats(g);
    const double clustering = average_local_clustering(g);
    const SlemResult slem = second_largest_eigenvalue(g);
    table.add_row({spec.name, with_thousands(g.num_vertices()),
                   with_thousands(g.num_edges()), fixed(degrees.mean, 1),
                   fixed(clustering, 3), format_mu(slem.mu, slem.certified, 4),
                   to_string(spec.expected_class)});
    std::cout << "measured " << spec.name << "\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool measure = argc == 2 && std::string(argv[1]) == "measure";
  if (argc > 1 && !measure)
    return sntrust::examples::usage_error("dataset_report [measure]");
  return sntrust::exec::guarded_main([&] { return run(measure); });
}
