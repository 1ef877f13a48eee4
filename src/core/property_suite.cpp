#include "core/property_suite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cores/kcore.hpp"
#include "exec/cancel.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace sntrust {

PropertyReport measure_properties(const Graph& g,
                                  const PropertySuiteOptions& options) {
  if (g.num_vertices() < 2 || g.num_edges() == 0)
    throw std::invalid_argument("measure_properties: graph too small");
  if (!is_connected(g))
    throw std::invalid_argument("measure_properties: graph must be connected");

  const obs::Span suite_span{"measure_properties"};
  // Pin the sweep parallelism for the whole suite; restored on return.
  const parallel::ScopedThreadCount thread_scope{
      options.threads != 0 ? options.threads : parallel::thread_count()};
  obs::set_gauge("suite.threads", parallel::thread_count());

  PropertyReport report;
  report.nodes = g.num_vertices();
  report.edges = g.num_edges();
  report.epsilon = options.epsilon > 0.0
                       ? options.epsilon
                       : 1.0 / static_cast<double>(g.num_vertices());

  {  // Structural characteristics.
    const obs::Span span{"stats"};
    report.mean_degree =
        2.0 * static_cast<double>(g.num_edges()) / g.num_vertices();
    report.clustering = average_local_clustering(g);
    report.assortativity = degree_assortativity(g);
    report.diameter_lb = double_sweep_diameter(g);
  }

  exec::check_process_cancel();  // phase boundary
  {  // Spectral side.
    const obs::Span span{"spectral"};
    report.slem = second_largest_eigenvalue(g);
    if (report.slem.mu > 0.0 && report.slem.mu < 1.0)
      report.bounds =
          sinclair_bounds(report.slem.mu, report.epsilon, g.num_vertices());
  }

  exec::check_process_cancel();  // phase boundary
  {  // Sampling side.
    const obs::Span span{"mixing"};
    MixingOptions mixing_options;
    mixing_options.num_sources = options.mixing_sources;
    mixing_options.max_walk_length = options.mixing_max_walk;
    mixing_options.seed = options.seed;
    report.mixing = measure_mixing(g, mixing_options);
    report.mixing_time = mixing_time_estimate(report.mixing, report.epsilon);
  }

  exec::check_process_cancel();  // phase boundary
  {  // Cores.
    const obs::Span span{"cores"};
    const CoreDecomposition cores = core_decomposition(g);
    report.degeneracy = cores.degeneracy;
    report.core_levels = core_profile(g, cores);
    if (!report.core_levels.empty()) {
      report.top_core_relative_size = report.core_levels.back().nu;
      for (const CoreLevel& level : report.core_levels)
        report.max_core_count =
            std::max(report.max_core_count, level.num_components);
    }
  }

  exec::check_process_cancel();  // phase boundary
  {  // Expansion.
    const obs::Span span{"expansion"};
    ExpansionOptions expansion_options;
    expansion_options.num_sources = options.expansion_sources;
    expansion_options.seed = options.seed ^ 0x51ed270b8a0f6d1fULL;
    report.expansion = measure_expansion(g, expansion_options);
    report.min_expansion_factor = report.expansion.min_alpha(g.num_vertices());
  }

  return report;
}

PropertyVerdict classify(const PropertyReport& report) {
  PropertyVerdict verdict;
  const double log_n = std::log2(std::max<double>(2.0, report.nodes));
  verdict.fast_mixing = report.mixing_time != 0xFFFFFFFFu &&
                        report.mixing_time <= 2.0 * log_n;
  verdict.single_core = report.max_core_count == 1;
  verdict.good_expander = report.min_expansion_factor >= 0.05;
  return verdict;
}

}  // namespace sntrust
