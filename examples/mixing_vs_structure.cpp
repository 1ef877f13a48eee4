// Demonstrates the paper's central observation on controlled synthetic
// graphs: community structure (not size) drives the mixing time. Sweeps the
// inter-community edge probability of a planted-partition graph while
// holding n and average degree fixed. The "max cores" column, the most
// components any k-core splits into, stays 1 on these equal-density
// communities at every cross-degree, so the closing line claims only mu,
// mixing time and conductance.
//
//   ./mixing_vs_structure [n]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>

#include "community/community.hpp"
#include "cores/core_profile.hpp"
#include "example_main.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

int run(sntrust::VertexId n) {
  using namespace sntrust;
  std::cout << "Planted partition, n=" << n
            << ", 10 communities, within-degree ~12, sweeping cross-community "
               "degree:\n\n";

  Table table{{"cross-degree", "mu", "T(eps=0.01)", "max cores",
               "best conductance"}};

  for (const double cross_degree : {0.2, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const double size = n / 10.0;
    const double p_in = 12.0 / (size - 1);
    const double p_out = cross_degree / (n - size);
    const Graph g =
        largest_component(planted_partition(n, 10, p_in, p_out, 99)).graph;

    const SlemResult slem = second_largest_eigenvalue(g);

    MixingOptions mixing_options;
    mixing_options.num_sources = 10;
    mixing_options.max_walk_length = 200;
    mixing_options.seed = 99;
    const std::uint32_t t =
        mixing_time_estimate(measure_mixing(g, mixing_options), 0.01);

    std::uint32_t max_cores = 0;
    for (const CoreLevel& level : core_profile(g))
      max_cores = std::max(max_cores, level.num_components);

    const SweepResult sweep = conductance_sweep(g, slem.lambda2_vector);

    table.add_row({fixed(cross_degree, 1),
                   format_mu(slem.mu, slem.certified, 4),
                   t == 0xFFFFFFFFu ? "> 200" : std::to_string(t),
                   std::to_string(max_cores),
                   fixed(sweep.best_conductance, 4)});
  }

  table.print(std::cout);
  std::cout << "\nWeaker communities (more cross edges) -> smaller mu, faster "
               "mixing, higher conductance: the paper's fast-mixing "
               "signature.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sntrust;
  const std::optional<std::uint64_t> n =
      argc > 1 ? parse_count(argv[1], 1, std::numeric_limits<VertexId>::max())
               : 2000;
  if (argc > 2 || !n)
    return examples::usage_error("mixing_vs_structure [n >= 1]");
  return exec::guarded_main(
      [&] { return run(static_cast<VertexId>(*n)); });
}
