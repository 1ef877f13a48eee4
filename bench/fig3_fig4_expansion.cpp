// Figures 3 and 4 from one expansion sweep per analogue.
//
// Figure 3 (a)-(j): measured expansion of node sets of different sizes,
// using every sampled node as a potential core — min / mean / max number of
// neighbours per unique envelope size.
//
// Figure 4: expected expansion factor alpha = E[|N(S)|] / |S| vs set size —
// panel (a) small datasets, panel (b) medium datasets — read from the
// profiles Figure 3 measured.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "expansion/expansion_profile.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

namespace {

using namespace sntrust;

struct Measured {
  VertexId n = 0;
  ExpansionProfile profile;
};

void print_panel(const std::string& title, const std::vector<std::string>& ids,
                 const std::map<std::string, Measured>& measured) {
  bench::Section section{title};
  SeriesSet figure{"set_size_bucket"};
  for (const std::string& id : ids) {
    const Measured& m = measured.at(id);
    // Bucket set sizes into 20 relative-size bins (|S| / n) so differently
    // sized graphs share an x axis, exactly how the paper overlays them.
    std::vector<double> sum(20, 0.0);
    std::vector<std::uint64_t> count(20, 0);
    for (const ExpansionPoint& p : m.profile.points) {
      const double relative = static_cast<double>(p.set_size) / m.n;
      const auto bucket = std::min<std::size_t>(
          19, static_cast<std::size_t>(relative * 20.0));
      sum[bucket] += p.mean_alpha();
      ++count[bucket];
    }
    std::vector<double> x, y;
    for (std::size_t b = 0; b < 20; ++b) {
      if (count[b] == 0) continue;
      x.push_back((b + 0.5) / 20.0);
      y.push_back(sum[b] / static_cast<double>(count[b]));
    }
    figure.add_series(dataset_by_id(id).name, x, y);
  }
  figure.print(std::cout);
}

static int run_bench() {
  std::map<std::string, Measured> measured;
  {
    bench::Section section{
        "Figure 3: envelope expansion (neighbours vs set size)"};
    for (const std::string& id : figure3_ids()) {
      bench::DatasetTimer dataset_timer;
      const DatasetSpec& spec = dataset_by_id(id);
      const Graph g = bench::dataset_graph(spec);
      ExpansionOptions options;
      // The paper's O(nm) full sweep is feasible for small graphs; sample
      // sources on the larger ones.
      options.num_sources = g.num_vertices() <= 5000 ? 0 : 2000;
      options.seed = bench::kBenchSeed;
      ExpansionProfile profile = measure_expansion(g, options);

      std::cout << "--- " << spec.name << " (n=" << g.num_vertices()
                << ", sources=" << profile.sources_used
                << ", depth<=" << profile.max_depth << ") ---\n";
      Table table{{"set size |S|", "min |N(S)|", "mean |N(S)|", "max |N(S)|",
                   "obs"}};
      // Subsample the profile to <= 16 rows spread over the size range.
      const std::size_t step =
          std::max<std::size_t>(1, profile.points.size() / 16);
      for (std::size_t i = 0; i < profile.points.size(); i += step) {
        const ExpansionPoint& p = profile.points[i];
        table.add_row({with_thousands(p.set_size),
                       with_thousands(p.min_neighbors),
                       fixed(p.mean_neighbors, 1),
                       with_thousands(p.max_neighbors),
                       with_thousands(p.observations)});
      }
      table.print(std::cout);
      measured[id] = {g.num_vertices(), std::move(profile)};
    }
    std::cout << "Expected shape (paper Fig. 3): neighbour counts rise to a "
                 "peak near moderate set sizes and fall as the envelope "
                 "swallows the graph; fast mixers peak higher and earlier.\n";
  }

  print_panel("Figure 4(a): expected expansion factor, small datasets",
              {"physics_1", "physics_2", "physics_3", "rice_grad"}, measured);
  print_panel("Figure 4(b): expected expansion factor, medium datasets",
              {"wiki_vote", "epinion", "enron", "slashdot_a", "facebook_a",
               "livejournal_a"},
              measured);
  std::cout << "Expected shape (paper Fig. 4 + Sec. V): the expansion-factor "
               "curves order the datasets the same way the mixing curves do "
               "— expansion is 'a scale of' the mixing measurement.\n";
  return 0;
}

}  // namespace

int main() { return sntrust::exec::guarded_main(run_bench); }
