// Ablation A9: directed mixing (the authors' follow-up question). The main
// paper symmetrizes natively-directed datasets (Wiki-vote, Slashdot,
// Epinion) before measuring; this experiment re-directs the analogues at
// several reciprocity levels and measures the teleporting directed chain's
// TVD decay — quantifying how much the undirected simplification flatters
// the mixing time.
#include <iostream>

#include "bench_common.hpp"
#include "digraph/digraph.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A9: directed vs undirected mixing"};

  Table table{{"Dataset", "reciprocity", "arcs", "TVD@10", "TVD@25",
               "TVD@50"}};
  for (const char* id : {"wiki_vote", "slashdot_a", "epinion"}) {
    const DatasetSpec& spec = dataset_by_id(id);
    const Graph base =
        bench::dataset_graph(spec, 0.2);

    bool first = true;
    for (const double reciprocity : {1.0, 0.5, 0.1}) {
      const Digraph d =
          orient_graph(base, reciprocity, bench::kBenchSeed);
      const DirectedMixingCurves curves =
          measure_directed_mixing(d, 0.01, 8, 50, bench::kBenchSeed);
      double tvd10 = 0.0, tvd25 = 0.0, tvd50 = 0.0;
      for (const auto& curve : curves.tvd) {
        tvd10 = std::max(tvd10, curve[10]);
        tvd25 = std::max(tvd25, curve[25]);
        tvd50 = std::max(tvd50, curve[50]);
      }
      table.add_row({first ? spec.name : "", fixed(reciprocity, 1),
                     with_thousands(d.num_arcs()), fixed(tvd10, 4),
                     fixed(tvd25, 4), fixed(tvd50, 4)});
      first = false;
    }
    std::cerr << "  " << id << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: directedness changes the mixing behaviour "
               "non-monotonically — on the strongly clustered analogue "
               "(Epinion) dropping reciprocity slows late-stage convergence "
               "by an order of magnitude (one-way arcs trap the walk in "
               "communities), while on the less clustered analogue random "
               "one-way orientation can even help (it sheds backtracking). "
               "Either way the undirected simplification measurably "
               "misestimates the directed chain — the follow-up work's "
               "starting point.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
