#include "cores/core_profile.hpp"

#include <algorithm>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "obs/diag.hpp"
#include "parallel/thread_pool.hpp"
#include "util/json.hpp"

namespace sntrust {

std::vector<CoreLevel> core_profile(const Graph& g) {
  return core_profile(g, core_decomposition(g));
}

std::vector<CoreLevel> core_profile(const Graph& g,
                                    const CoreDecomposition& d) {
  const VertexId n = g.num_vertices();
  const double edge_total = static_cast<double>(g.num_edges());
  std::vector<CoreLevel> levels;
  if (n == 0 || d.degeneracy == 0) return levels;

  const auto& offsets = g.offsets();
  const auto& targets = g.targets();

  // One independent level per k in [1, degeneracy], swept across the pool.
  // Per-worker scratch: component labels via epoch marking plus a BFS queue.
  struct Scratch {
    std::vector<std::uint32_t> label;
    std::vector<VertexId> queue;
  };
  std::vector<Scratch> scratch(parallel::plan_workers(d.degeneracy));

  exec::SweepOptions sweep;
  sweep.kind = "core_profile";
  sweep.token = exec::process_token();
  sweep.fingerprint = exec::fingerprint(
      {n, g.num_edges(), d.degeneracy, exec::graph_fingerprint(g)});
  const exec::SweepResult swept = exec::run_sweep(
      d.degeneracy, sweep, [&](std::size_t idx, std::uint32_t worker) {
        const std::uint32_t k = static_cast<std::uint32_t>(idx) + 1;
        Scratch& s = scratch[worker];
        if (s.label.size() != n) {
          s.label.assign(n, 0u);
          s.queue.reserve(n);
        }

        // Count vertices and edges inside the core in one adjacency sweep.
        std::uint64_t vertices = 0;
        std::uint64_t half_edges = 0;
        for (VertexId v = 0; v < n; ++v) {
          if (d.coreness[v] < k) continue;
          ++vertices;
          for (EdgeIndex e = offsets[v]; e < offsets[v + 1]; ++e)
            if (d.coreness[targets[e]] >= k) ++half_edges;
        }

        // Connected components restricted to the core.
        std::fill(s.label.begin(), s.label.end(), 0u);
        std::uint32_t next_label = 0;
        std::uint64_t largest = 0;
        for (VertexId start = 0; start < n; ++start) {
          if (d.coreness[start] < k || s.label[start] != 0) continue;
          ++next_label;
          std::uint64_t size = 0;
          s.queue.clear();
          s.queue.push_back(start);
          s.label[start] = next_label;
          std::size_t head = 0;
          while (head < s.queue.size()) {
            const VertexId u = s.queue[head++];
            ++size;
            for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
              const VertexId w = targets[e];
              if (d.coreness[w] >= k && s.label[w] == 0) {
                s.label[w] = next_label;
                s.queue.push_back(w);
              }
            }
          }
          largest = std::max(largest, size);
        }

        // Integer payload only; the derived ratios (nu, tau) are recomputed
        // at decode time with the exact expressions used before, so resumed
        // and fresh levels are bitwise identical.
        json::Array row;
        row.push_back(
            json::Value::integer(static_cast<std::int64_t>(vertices)));
        row.push_back(
            json::Value::integer(static_cast<std::int64_t>(half_edges / 2)));
        row.push_back(
            json::Value::integer(static_cast<std::int64_t>(next_label)));
        row.push_back(
            json::Value::integer(static_cast<std::int64_t>(largest)));
        return json::Value::array(std::move(row)).dump();
      });

  levels.reserve(d.degeneracy);
  for (std::size_t idx = 0; idx < swept.payloads.size(); ++idx) {
    const json::Value row = json::Value::parse(swept.payloads[idx]);
    const json::Array& fields = row.as_array();
    CoreLevel level;
    level.k = static_cast<std::uint32_t>(idx) + 1;
    level.vertices = static_cast<std::uint64_t>(fields.at(0).as_int());
    level.edges = static_cast<std::uint64_t>(fields.at(1).as_int());
    level.num_components = static_cast<std::uint32_t>(fields.at(2).as_int());
    level.largest_component =
        static_cast<std::uint64_t>(fields.at(3).as_int());
    level.nu = static_cast<double>(level.vertices) / n;
    level.tau = edge_total == 0.0
                    ? 0.0
                    : static_cast<double>(level.edges) / edge_total;
    levels.push_back(level);
  }
  // Diagnostics (SNTRUST_DIAG): the nu(k) trajectory — the fraction of the
  // graph surviving into each k-core — is the decay curve behind the
  // coreness figures. Exact computation, so never flagged; the fitted decay
  // rate is what diag renders and diffs.
  if (obs::diag_enabled() && !levels.empty()) {
    obs::ConvergenceTrace nu_trace;
    for (const CoreLevel& level : levels) nu_trace.add(level.nu);
    obs::DiagRegistry::instance().record_trace(
        obs::summarize_trace("cores.nu", 0, nu_trace, /*converged=*/true));
  }
  return levels;
}

}  // namespace sntrust
