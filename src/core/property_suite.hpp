// The paper's primary contribution packaged as a library: one call measures
// every property the paper relates — mixing (sampling + spectral), core
// structure, and expansion — for any connected social graph, and reports the
// cross-property observations (fast mixing <-> one large core; expansion
// tracks mixing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cores/core_profile.hpp"
#include "expansion/expansion_profile.hpp"
#include "graph/graph.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"

namespace sntrust {

struct PropertySuiteOptions {
  /// Mixing measurement (sampling method).
  std::uint32_t mixing_sources = 50;
  std::uint32_t mixing_max_walk = 100;
  /// Expansion sweep source budget (0 = all vertices).
  std::uint32_t expansion_sources = 1000;
  /// Target variation distance for the mixing-time estimate; 0 means the
  /// paper's epsilon = 1/n (Theta(1/n)).
  double epsilon = 0.0;
  std::uint64_t seed = 1;
  /// Worker threads for the per-source sweeps (mixing, expansion) and the
  /// spectral matvecs. 0 inherits the process default (SNTRUST_THREADS /
  /// hardware_concurrency); results are identical for any value.
  std::uint32_t threads = 0;
};

/// Everything the paper measures about one graph.
struct PropertyReport {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;

  // Structural characteristics (the "known characteristics" of the
  // Dell'Amico discussion, measured alongside so reports are
  // self-contained).
  double mean_degree = 0.0;
  double clustering = 0.0;       ///< average local clustering
  double assortativity = 0.0;    ///< Newman's degree assortativity
  std::uint32_t diameter_lb = 0; ///< double-sweep lower bound

  // Mixing.
  SlemResult slem;                  ///< second largest eigenvalue modulus
  MixingBounds bounds;              ///< Sinclair bounds at epsilon
  MixingCurves mixing;              ///< TVD-vs-length curves
  double epsilon = 0.0;
  /// Sampling-method estimate of T(epsilon); UINT32_MAX when the curve did
  /// not drop below epsilon within mixing_max_walk.
  std::uint32_t mixing_time = 0;

  // Cores.
  std::uint32_t degeneracy = 0;
  std::vector<CoreLevel> core_levels;
  /// nu_k at k = degeneracy: relative size of the innermost core.
  double top_core_relative_size = 0.0;
  /// Max number of simultaneous connected cores over all k (1 = always a
  /// single core — the paper's fast-mixing signature).
  std::uint32_t max_core_count = 0;

  // Expansion.
  ExpansionProfile expansion;
  /// Minimum mean expansion factor over envelope sizes <= n/2.
  double min_expansion_factor = 0.0;
};

/// Runs the full measurement suite. The graph must be connected with >= 2
/// vertices (throws std::invalid_argument otherwise).
PropertyReport measure_properties(const Graph& g,
                                  const PropertySuiteOptions& options = {});

/// One-line verdicts used by examples and EXPERIMENTS.md; derived purely
/// from the report so tests can pin them.
struct PropertyVerdict {
  bool fast_mixing = false;      ///< T(eps) within 2x log2(n)
  bool single_core = false;      ///< max_core_count == 1
  bool good_expander = false;    ///< min expansion factor >= 0.05
};
PropertyVerdict classify(const PropertyReport& report);

}  // namespace sntrust
