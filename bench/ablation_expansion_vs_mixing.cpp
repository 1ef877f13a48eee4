// Ablation A3: the paper's Sec. V claim that the expansion measurements
// "can be interpreted as a scale of" the mixing measurements. For every
// dataset analogue, measure mu (spectral mixing) and the minimum expected
// expansion factor, and print the scatter; the two should order the
// datasets the same way (rank correlation reported).
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "expansion/expansion_profile.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

double spearman_rank_correlation(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  const std::size_t n = a.size();
  const auto ranks = [n](const std::vector<double>& values) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return values[x] < values[y]; });
    std::vector<double> rank(n);
    for (std::size_t i = 0; i < n; ++i) rank[order[i]] = static_cast<double>(i);
    return rank;
  };
  const std::vector<double> ra = ranks(a), rb = ranks(b);
  double d2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (static_cast<double>(n) * (n * n - 1.0));
}

}  // namespace

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A3: expansion vs mixing across datasets"};

  Table table{{"Dataset", "mu", "min expansion factor", "class"}};
  std::vector<double> mus, alphas;
  for (const DatasetSpec& spec : all_datasets()) {
    const Graph g =
        bench::dataset_graph(spec, 0.25);

    SlemOptions slem_options;
    slem_options.seed = bench::kBenchSeed;
    const double mu = second_largest_eigenvalue(g, slem_options).mu;

    ExpansionOptions expansion_options;
    expansion_options.num_sources = std::min<std::uint32_t>(
        g.num_vertices(), 1500);
    expansion_options.seed = bench::kBenchSeed;
    const double alpha =
        measure_expansion(g, expansion_options).min_alpha(g.num_vertices());

    mus.push_back(mu);
    alphas.push_back(alpha);
    table.add_row({spec.name, fixed(mu, 4), fixed(alpha, 4),
                   to_string(spec.expected_class)});
    std::cerr << "  " << spec.id << " done\n";
  }
  table.print(std::cout);

  // Faster mixing (smaller mu) should pair with larger expansion, so the
  // rank correlation between mu and alpha should be strongly negative.
  std::cout << "Spearman rank correlation (mu vs expansion factor): "
            << fixed(spearman_rank_correlation(mus, alphas), 3)
            << "  (expected: strongly negative)\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
