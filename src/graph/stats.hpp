// Whole-graph summary statistics used in dataset reports and tests.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

struct DegreeStats {
  VertexId min = 0;
  VertexId max = 0;
  double mean = 0.0;
  double median = 0.0;
  /// histogram[d] = number of vertices with degree d (length max+1).
  std::vector<std::uint64_t> histogram;
};

/// Degree distribution summary. Defined for non-empty graphs.
DegreeStats degree_stats(const Graph& g);

/// Average local clustering coefficient (Watts-Strogatz definition);
/// vertices of degree < 2 contribute 0.
double average_local_clustering(const Graph& g);

/// Lower bound on the diameter via the standard double-sweep heuristic
/// (BFS from `hint`, then BFS from the farthest vertex found). Exact on
/// trees; a tight lower bound in practice on social graphs.
std::uint32_t double_sweep_diameter(const Graph& g, VertexId hint = 0);

/// Degree assortativity (Newman's r): Pearson correlation of the degrees at
/// the two ends of an edge, in [-1, 1]. Social graphs are typically
/// assortative (r > 0); interaction graphs with hubs disassortative.
/// Returns 0 when degenerate (all degrees equal or no edges).
double degree_assortativity(const Graph& g);

}  // namespace sntrust
