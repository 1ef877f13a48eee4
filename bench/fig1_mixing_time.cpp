// Figure 1: total variation distance vs walk length, measured with the
// sampling method from random sources — panel (a) small/medium datasets,
// panel (b) large datasets.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "markov/mixing.hpp"
#include "report/series.hpp"

namespace {

void run_panel(const std::string& title,
               const std::vector<std::string>& ids,
               std::uint32_t max_walk) {
  using namespace sntrust;
  bench::Section section{title};
  SeriesSet figure{"walk_length"};
  for (const std::string& id : ids) {
    bench::DatasetTimer dataset_timer;
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph g = bench::dataset_graph(spec);
    MixingOptions options;
    options.num_sources = 10;
    options.max_walk_length = max_walk;
    options.seed = bench::kBenchSeed;
    const MixingCurves curves = measure_mixing(g, options);
    const std::vector<double> mean = curves.mean_curve();
    std::vector<double> x, y;
    for (std::uint32_t t = 0; t <= max_walk; t += 5) {
      x.push_back(t);
      y.push_back(mean[t]);
    }
    figure.add_series(spec.name, x, y);
    std::cerr << "  measured " << id << " (n=" << g.num_vertices() << ")\n";
  }
  figure.print(std::cout);
}

}  // namespace

static int run_bench() {
  run_panel("Figure 1(a): mixing of small/medium datasets (mean TVD, 10 sources)",
            sntrust::figure1_small_ids(), 100);
  run_panel("Figure 1(b): mixing of large datasets (mean TVD, 10 sources)",
            sntrust::figure1_large_ids(), 100);
  std::cout << "Expected shape: Wiki-vote/Epinion/Slashdot-class curves drop "
               "quickly; Physics/DBLP/Facebook-class curves stay high — the "
               "paper's fast/slow split.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
