// Frontier-sparse kernels for evolving walk distributions from point-mass
// sources (the regime of the paper's sampling method, Eq. 2): the support of
// pi^{(i)} P^t is tiny for the first many steps, so the O(m) dense gather and
// the O(n) total-variation pass waste almost all of their work. This layer
// tracks the distribution's support explicitly, computes each step as a pull
// restricted to frontier-adjacent rows, and measures TVD against the
// stationary distribution in O(|support|) with a precomputed pi prefix
// structure.
//
// Exactness contract: a candidate row gathers over its *full adjacency* in
// CSR order skipping zero entries — the identical summation the dense kernel
// performs for that row — so every dense crossover fraction produces bitwise
// identical distributions and TVD curves. The fraction changes only how much
// work a step does, never what it computes; tests pin the identity at 0
// (always dense), 0.5 (the default) and +infinity (sparse until saturation).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"
#include "markov/transition.hpp"  // StepKind

namespace sntrust {
namespace obs {
class Counter;
class QuantileHistogram;
}  // namespace obs

/// Prefix sums of the stationary distribution: prefix(v) = sum_{u < v} pi_u.
/// The support-aware TVD charges the mass of every gap between consecutive
/// support vertices as one O(1) prefix difference instead of an O(gap) scan.
class StationaryPrefix {
 public:
  explicit StationaryPrefix(const Distribution& pi);

  /// sum_{v in [begin, end)} pi_v.
  double range_mass(VertexId begin, VertexId end) const {
    return prefix_[end] - prefix_[begin];
  }
  VertexId size() const { return static_cast<VertexId>(prefix_.size() - 1); }

 private:
  std::vector<double> prefix_;  // n + 1 entries
};

/// Support-aware total variation distance to the stationary distribution:
///   0.5 * ( sum_{v in supp} |p_v - pi_v|  +  sum_{v not in supp} pi_v )
/// with the complement mass folded gap-by-gap through `prefix` (ascending
/// order, so the grouping is deterministic). `support` must be sorted
/// ascending and cover every nonzero of `p`; vertices listed with p_v == 0
/// are harmless (their two contributions cancel exactly in real arithmetic).
double support_tvd(const Distribution& p, const std::vector<VertexId>& support,
                   const Distribution& pi, const StationaryPrefix& prefix);

/// Reusable frontier-walk workspace bound to one graph: a distribution, its
/// sorted support, and the scratch needed to expand the frontier. Sweeps
/// construct one per worker and reset() it per source.
///
/// Support evolution is structural (next support = candidate rows =
/// neighbours of the support, plus the support itself for self-weighted
/// kinds) and runs identically whichever kernel a step uses, so TVD
/// grouping — and therefore every curve value — never depends on the
/// crossover. Once the support saturates to all n vertices (a fixed point of
/// the expansion on any graph without isolated vertices) the walk drops the
/// bookkeeping and runs pure dense steps.
class FrontierWalk {
 public:
  struct Options {
    /// Dense crossover: a step uses the dense gather when the summed degree
    /// of its candidate rows reaches dense_fraction * 2m, and the sparse
    /// pull otherwise. 0 forces dense from the first step; +infinity keeps
    /// the sparse pull until the support saturates.
    double dense_fraction = 0.5;
  };

  explicit FrontierWalk(const Graph& g);
  FrontierWalk(const Graph& g, const Options& options);

  /// Re-points the walk at a point mass on `source`.
  void reset(VertexId source);

  /// Advances one step of the chosen chain (alpha is the kModulated retain
  /// weight, in [0, 1)).
  void step(StepKind kind, double alpha = 0.0);

  /// TVD of the current distribution against pi; support-aware until the
  /// walk saturates. `pi`/`prefix` must match the graph's vertex count.
  double tvd(const Distribution& pi, const StationaryPrefix& prefix) const;

  const Distribution& distribution() const { return p_; }
  /// Sorted structural support of the current distribution. Meaningful only
  /// while !saturated(); saturated walks cover every vertex.
  const std::vector<VertexId>& support() const { return support_; }
  bool saturated() const { return saturated_; }

  /// True when the most recent step() used the dense gather.
  bool last_step_dense() const { return last_step_dense_; }
  /// Summed degree of the candidate rows in the most recent step (0 for
  /// saturated dense steps — no candidate set is built).
  EdgeIndex last_frontier_degree() const { return last_frontier_degree_; }

 private:
  void build_candidates(bool include_support);
  void clear_buffer();
  void dense_step(StepKind kind, double alpha);
  void sparse_step(StepKind kind, double alpha);
  void commit_step();

  const Graph& graph_;
  double dense_fraction_;

  Distribution p_, buffer_;
  std::vector<VertexId> support_;         // sorted support of p_
  std::vector<VertexId> buffer_support_;  // sorted support of buffer_
  std::vector<VertexId> candidates_;      // rows the pending step writes
  std::vector<std::uint32_t> seen_;       // epoch marks for frontier expansion
  std::uint32_t epoch_ = 0;
  bool saturated_ = false;
  bool buffer_saturated_ = false;

  bool last_step_dense_ = false;
  EdgeIndex last_frontier_degree_ = 0;

  obs::Counter& sparse_steps_;
  obs::Counter& dense_steps_;
  obs::Counter& frontier_edges_;
  obs::QuantileHistogram& step_latency_;
};

}  // namespace sntrust
