// Figure 2: empirical CDF of node coreness per dataset — panel (a) small,
// panel (b) large. The paper's reading: fast-mixing graphs put a larger
// fraction of nodes at high coreness.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "cores/kcore.hpp"
#include "report/series.hpp"

namespace {

void run_panel(const std::string& title,
               const std::vector<std::string>& ids) {
  using namespace sntrust;
  bench::Section section{title};
  SeriesSet figure{"core_number"};
  for (const std::string& id : ids) {
    bench::DatasetTimer dataset_timer;
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph g = bench::dataset_graph(spec);
    const CoreDecomposition cores = core_decomposition(g);
    const std::vector<double> ecdf = coreness_ecdf(cores);
    std::vector<double> x, y;
    // Subsample to <= 25 points for readability.
    const std::size_t step = std::max<std::size_t>(1, ecdf.size() / 25);
    for (std::size_t k = 0; k < ecdf.size(); k += step) {
      x.push_back(static_cast<double>(k));
      y.push_back(ecdf[k]);
    }
    x.push_back(static_cast<double>(ecdf.size() - 1));
    y.push_back(1.0);
    figure.add_series(spec.name, x, y);
    std::cerr << "  " << id << ": degeneracy " << cores.degeneracy << "\n";
  }
  figure.print(std::cout);
}

}  // namespace

static int run_bench() {
  run_panel("Figure 2(a): coreness ECDF, small datasets",
            sntrust::figure2_small_ids());
  run_panel("Figure 2(b): coreness ECDF, large datasets",
            sntrust::figure2_large_ids());
  std::cout << "Expected shape: fast mixers (Wiki-vote, Epinion) keep mass at "
               "high core numbers (ECDF rises late); slow mixers saturate "
               "at small k.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
