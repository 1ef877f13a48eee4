// Growth monitor: replays a social-graph growth process and reports how the
// trustworthy-computing properties evolve — the paper's Sec.-VI open
// problem, runnable. Compares a weak-trust process (preferential
// attachment) with a strict-trust one (regional affiliation).
//
//   ./growth_monitor [final_n]
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>

#include "dynamic/evolution.hpp"
#include "example_main.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

void report(const std::string& title,
            const std::vector<sntrust::EvolutionPoint>& points) {
  using namespace sntrust;
  std::cout << "--- " << title << " ---\n";
  Table table{{"snapshot n", "mu", "degeneracy", "max cores",
               "min expansion"}};
  for (const EvolutionPoint& p : points)
    table.add_row({with_thousands(p.snapshot_vertices),
                   format_mu(p.mu, p.mu_certified, 4),
                   std::to_string(p.degeneracy),
                   std::to_string(p.max_core_count),
                   fixed(p.min_expansion_factor, 3)});
  table.print(std::cout);
  std::cout << "\n";
}

int run(sntrust::VertexId n) {
  using namespace sntrust;
  const std::vector<VertexId> sizes{n / 8, n / 4, n / 2, n};

  EvolutionOptions options;
  options.expansion_sources = 300;

  report("weak-trust growth (preferential attachment, m=4)",
         measure_evolution(preferential_attachment_trace(n, 4, 11), sizes,
                           options));
  report("strict-trust growth (affiliation, 16 regions)",
         measure_evolution(affiliation_trace(n, 16, 1.2, 11), sizes,
                           options));

  std::cout << "A deployed Sybil defense would need to re-validate its "
               "mixing/expansion assumptions as the strict-trust network "
               "grows: its mu creeps toward 1 and its cores fragment, while "
               "the weak-trust network's properties are scale-stable.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sntrust;
  const std::optional<std::uint64_t> n =
      argc > 1 ? parse_count(argv[1], 1, std::numeric_limits<VertexId>::max())
               : 4000;
  if (argc > 2 || !n)
    return examples::usage_error("growth_monitor [final_n >= 1]");
  return exec::guarded_main(
      [&] { return run(static_cast<VertexId>(*n)); });
}
