// Ablation A1: community strength vs mixing. Holds n and average degree
// fixed in a planted-partition model and sweeps the cross-community edge
// budget; reports mu, sampled T(eps) and the spectral-sweep conductance.
// Quantifies the paper's qualitative claim that the social model (community
// confinement), not size, drives the mixing time, and checks the spectral
// view against the community one: the sweep over the lambda_2 vector must
// lie inside Cheeger's bracket [(1 - rho)/2, sqrt(2 (1 - rho))], where rho
// is that vector's Rayleigh quotient. A row outside it exits 1.
#include <iostream>

#include "bench_common.hpp"
#include "community/community.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A1: community strength vs mixing"};

  const auto n = static_cast<VertexId>(4000 * exec::applied_config().scale);
  Table table{{"cross-degree", "mu", "T(eps=1/n)", "(1-rho)/2", "conductance",
               "sqrt(2(1-rho))"}};

  const auto cross_degrees = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
  std::size_t inside = 0;
  for (const double cross_degree : cross_degrees) {
    const double size = n / 20.0;
    const double p_in = 12.0 / (size - 1);
    const double p_out = cross_degree / (n - size);
    const Graph g = largest_component(
                        planted_partition(n, 20, p_in, p_out,
                                          bench::kBenchSeed))
                        .graph;

    const SlemResult slem = second_largest_eigenvalue(g);

    MixingOptions mixing_options;
    mixing_options.num_sources = 10;
    mixing_options.max_walk_length = 300;
    mixing_options.seed = bench::kBenchSeed;
    const std::uint32_t t = mixing_time_estimate(
        measure_mixing(g, mixing_options), 1.0 / g.num_vertices());

    const double phi =
        conductance_sweep(g, slem.lambda2_vector).best_conductance;
    const CheegerBounds cheeger = cheeger_bounds(slem.lambda2);
    if (cheeger.lower <= phi && phi <= cheeger.upper) ++inside;

    table.add_row({fixed(cross_degree, 2),
                   format_mu(slem.mu, slem.certified, 4),
                   t == 0xFFFFFFFFu ? "> 300" : std::to_string(t),
                   fixed(cheeger.lower, 4), fixed(phi, 4),
                   fixed(cheeger.upper, 4)});
    std::cerr << "  cross-degree " << cross_degree << " done\n";
  }

  table.print(std::cout);
  std::cout << "Cheeger check: " << inside << " of " << cross_degrees.size()
            << " sweep conductances lie in [(1-rho)/2, sqrt(2(1-rho))].\n";
  std::cout << "Expected shape: mu and T(eps) fall monotonically as cross-"
               "community edges are added; conductance rises.\n";
  return inside == cross_degrees.size() ? 0 : 1;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
