// Quickstart: generate a social-graph analogue, run the full property suite
// (the paper's methodology), and print a one-page report.
//
//   ./quickstart [dataset_id] [scale]
//
// Defaults: wiki_vote at scale 0.25.
#include <iostream>
#include <optional>
#include <string>

#include "core/property_suite.hpp"
#include "example_main.hpp"
#include "gen/datasets.hpp"
#include "report/table.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

int run(const std::string& id, double scale) {
  using namespace sntrust;
  const DatasetSpec& spec = dataset_by_id(id);
  std::cout << "Generating analogue of " << spec.name << " (" << spec.social_model
            << ", expected mixing: " << to_string(spec.expected_class)
            << ") at scale " << scale << "...\n";
  const Graph g = spec.generate(scale, /*seed=*/2026);

  PropertySuiteOptions options;
  options.mixing_sources = 20;
  options.mixing_max_walk = 120;
  options.expansion_sources = 500;
  const PropertyReport report = measure_properties(g, options);
  const PropertyVerdict verdict = classify(report);

  Table table{{"property", "value"}};
  table.add_row({"nodes", with_thousands(report.nodes)});
  table.add_row({"edges", with_thousands(report.edges)});
  table.add_row({"second largest eigenvalue (mu)", fixed(report.slem.mu, 4)});
  table.add_row({"Sinclair lower bound T(eps)", fixed(report.bounds.lower, 1)});
  table.add_row({"Sinclair upper bound T(eps)", fixed(report.bounds.upper, 1)});
  table.add_row({"sampled mixing time T(eps)",
                 report.mixing_time == 0xFFFFFFFFu
                     ? "> " + std::to_string(options.mixing_max_walk)
                     : std::to_string(report.mixing_time)});
  table.add_row({"degeneracy (max coreness)",
                 std::to_string(report.degeneracy)});
  table.add_row({"innermost core relative size (nu)",
                 fixed(report.top_core_relative_size, 4)});
  table.add_row({"max simultaneous cores",
                 std::to_string(report.max_core_count)});
  table.add_row({"min expansion factor", fixed(report.min_expansion_factor, 4)});
  table.add_row({"verdict: fast mixing", verdict.fast_mixing ? "yes" : "no"});
  table.add_row({"verdict: single core", verdict.single_core ? "yes" : "no"});
  table.add_row({"verdict: good expander",
                 verdict.good_expander ? "yes" : "no"});
  table.print(std::cout);

  std::cout << "\nTVD decay (mean over " << report.mixing.sources.size()
            << " sources):\n";
  const auto mean = report.mixing.mean_curve();
  for (std::uint32_t t = 0; t < mean.size(); t += 10)
    std::cout << "  t=" << t << "  tvd=" << fixed(mean[t], 4) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sntrust;
  const std::string id = argc > 1 ? argv[1] : "wiki_vote";
  const std::optional<double> scale =
      argc > 2 ? parse_nonnegative(argv[2]) : 0.25;
  if (argc > 3 || !scale || *scale == 0.0)
    return examples::usage_error("quickstart [dataset_id] [scale > 0]");
  return exec::guarded_main([&] { return run(id, *scale); });
}
