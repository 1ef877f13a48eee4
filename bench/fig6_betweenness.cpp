// Companion measurement (the authors' betweenness study, cited as [4]/[14]
// in the paper's introduction): the distribution of shortest-path
// betweenness across dataset classes. Sybil defenses built on betweenness
// (Quercia & Hailes) assume most vertices have negligible betweenness while
// a small core carries the traffic; this bench regenerates that
// distribution per class.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "centrality/centrality.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Companion: betweenness distribution per class"};

  SeriesSet figure{"quantile"};
  Table table{{"Dataset", "n", "class", "max (norm.)", "median (norm.)",
               "top-1% share"}};
  for (const char* id : {"wiki_vote", "epinion", "physics_1", "physics_2",
                         "facebook_a"}) {
    bench::DatasetTimer dataset_timer;
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph g =
        bench::dataset_graph(spec, 0.15);

    CentralityOptions options;
    options.num_sources = std::min<VertexId>(g.num_vertices(), 600);
    options.seed = bench::kBenchSeed;
    std::vector<double> scores =
        normalize_betweenness(betweenness_centrality(g, options),
                              g.num_vertices());
    std::sort(scores.begin(), scores.end());

    // Quantile curve (x = quantile, y = normalized betweenness).
    std::vector<double> x, y;
    for (const double q : {0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
      const auto index = static_cast<std::size_t>(
          std::min<double>(scores.size() - 1, q * scores.size()));
      x.push_back(q);
      y.push_back(scores[index]);
    }
    figure.add_series(spec.name, x, y);

    double total = 0.0, top = 0.0;
    for (const double s : scores) total += s;
    const std::size_t top_count =
        std::max<std::size_t>(1, scores.size() / 100);
    for (std::size_t i = scores.size() - top_count; i < scores.size(); ++i)
      top += scores[i];
    table.add_row({spec.name, with_thousands(g.num_vertices()),
                   to_string(spec.expected_class),
                   compact(scores.back(), 3),
                   compact(scores[scores.size() / 2], 3),
                   fixed(100.0 * (total > 0 ? top / total : 0.0), 1) + "%"});
    std::cerr << "  " << id << " done\n";
  }

  std::cout << "Normalized betweenness by quantile:\n";
  figure.print(std::cout);
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "Expected shape: heavily skewed everywhere — the median sits "
               "orders of magnitude below the maximum, and the top 1% of "
               "vertices carries a disproportionate share of all "
               "shortest-path traffic (up to ~50% on the heavy-tailed "
               "analogues) — the premise of betweenness-based defenses and "
               "of SimBet routing.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
