// Ablation A7: measurement methodology under graph sampling. The paper
// measures full graphs (sampling only walk *sources*); practitioners often
// measure a sampled subgraph instead. This experiment quantifies which of
// the paper's properties survive which sampler: snowball samples inflate
// density/coreness and shrink mixing time artificially; uniform-vertex
// samples shatter the structure; random-walk samples track the truth best.
#include <iostream>

#include "bench_common.hpp"
#include "cores/kcore.hpp"
#include "gen/sampling.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

struct Row {
  std::string name;
  sntrust::Graph graph;
};

}  // namespace

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A7: property fidelity under sampling"};

  const Graph full =
      bench::dataset_graph(dataset_by_id("epinion"), 0.3);
  const VertexId k = full.num_vertices() / 5;
  std::cout << "full graph: Epinion analogue, n=" << full.num_vertices()
            << ", sample size k=" << k << "\n\n";

  std::vector<Row> rows;
  rows.push_back({"full graph", full});
  rows.push_back({"random vertices",
                  largest_component(
                      sample_random_vertices(full, k, bench::kBenchSeed).graph)
                      .graph});
  rows.push_back({"random edges",
                  largest_component(
                      sample_random_edges(full, k, bench::kBenchSeed).graph)
                      .graph});
  rows.push_back(
      {"snowball",
       largest_component(sample_snowball(full, k, bench::kBenchSeed).graph)
           .graph});
  rows.push_back({"random walk",
                  largest_component(
                      sample_random_walk(full, k, bench::kBenchSeed).graph)
                      .graph});

  Table table{{"sample", "LC nodes", "mean deg", "clustering", "degeneracy",
               "mu"}};
  for (const Row& row : rows) {
    const DegreeStats degrees = degree_stats(row.graph);
    const double clustering = average_local_clustering(row.graph);
    const std::uint32_t degeneracy = core_decomposition(row.graph).degeneracy;
    const SlemResult slem = second_largest_eigenvalue(row.graph);
    table.add_row({row.name, with_thousands(row.graph.num_vertices()),
                   fixed(degrees.mean, 2), fixed(clustering, 3),
                   std::to_string(degeneracy),
                   format_mu(slem.mu, slem.certified, 4)});
    std::cerr << "  " << row.name << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: uniform-vertex sampling guts density and "
               "coreness; snowball/walk samples preserve degeneracy and "
               "clustering better but perturb mu — a caution for applying "
               "the paper's methodology to sampled graphs.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
