// Figure 5 (a)-(j): relative size of cores nu_k vs k (top row) and the
// number of connected cores vs k (bottom row) for representative datasets.
#include <iostream>

#include "bench_common.hpp"
#include "cores/core_profile.hpp"
#include "report/series.hpp"

static int run_bench() {
  using namespace sntrust;

  SeriesSet sizes{"k"};
  SeriesSet counts{"k"};
  {
    bench::Section section{"Figure 5: core structure per k"};
    for (const std::string& id : figure5_ids()) {
      bench::DatasetTimer dataset_timer;
    const DatasetSpec& spec = dataset_by_id(id);
      const Graph g = bench::dataset_graph(spec);
      const auto levels = core_profile(g);
      std::vector<double> x, nu, components;
      const std::size_t step = std::max<std::size_t>(1, levels.size() / 20);
      for (std::size_t i = 0; i < levels.size(); i += step) {
        x.push_back(levels[i].k);
        nu.push_back(levels[i].nu);
        components.push_back(levels[i].num_components);
      }
      sizes.add_series(spec.name, x, nu);
      counts.add_series(spec.name, x, components);
      std::cerr << "  profiled " << id << " (degeneracy "
                << (levels.empty() ? 0u : levels.back().k) << ")\n";
    }
  }

  std::cout << "--- Figure 5 top row: relative core size nu_k ---\n";
  sizes.print(std::cout);
  std::cout << "\n--- Figure 5 bottom row: number of connected cores ---\n";
  counts.print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 5): fast mixers (Epinion, "
               "Wiki-vote) hold a single core with large nu_k deep into k; "
               "slow mixers (Physics) fragment into multiple small cores as "
               "k grows.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
