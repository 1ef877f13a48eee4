#include "cores/core_profile.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "obs/diag.hpp"
#include "parallel/thread_pool.hpp"

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
  if (exec::CheckpointStore::instance().armed())
    sweep.fingerprint = exec::fingerprint(
        {n, g.num_edges(), d.degeneracy, g.fingerprint()});
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

        // Integer record only; the derived ratios (nu, tau) are computed
        // from it afterwards, so resumed and fresh levels are bitwise
        // identical.
        return exec::Record{vertices, half_edges / 2, next_label, largest};
      });

  levels.reserve(d.degeneracy);
  for (std::size_t idx = 0; idx < swept.records.size(); ++idx) {
    const exec::Record& fields = swept.records[idx];
    if (fields.size() != 4)
      throw std::runtime_error(
          "core_profile: checkpointed level " + std::to_string(idx + 1) +
          " has " + std::to_string(fields.size()) + " words, not 4");
    CoreLevel level;
    level.k = static_cast<std::uint32_t>(idx) + 1;
    level.vertices = fields[0];
    level.edges = fields[1];
    level.num_components = static_cast<std::uint32_t>(fields[2]);
    level.largest_component = fields[3];
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
