// Lane blocks: many walk distributions evolved under one chain with one CSR
// pass per step for a group of them (multi-source SpMM), the kernel behind
// the mixing sweep.
//
// A group of `lanes` distributions is stored lane-interleaved as n x lanes
// doubles: entry (v, l) lives at v * lanes + l, so a row gather reads each
// neighbour's lanes as one contiguous run. A step is two passes:
//
//   1. pre-divide, once per vertex: scaled(w, l) = p(w, l) / deg(w) — the
//      exact double the old per-edge kernels computed on every edge;
//   2. row-partitioned gather: acc_l += scaled(w, l) over v's CSR row in
//      stored order, then the chain's blend.
//
// Bitwise contract: every lane's accumulator starts at +0.0 and adds the
// same terms in the same CSR order as a single-vector gather (the lane loop
// is innermost and never reassociates within a lane). A zero entry adds
// ±0.0, which cannot change an accumulator that starts at +0.0, so no
// zero-skip is needed. A lane's values therefore equal step_distribution /
// step_distribution_lazy on that column at any lane count, group split and
// thread count — and those single-vector kernels are themselves the 1-lane
// instantiation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"
#include "markov/transition.hpp"  // StepKind
#include "parallel/parallel.hpp"

namespace sntrust {

/// Sources per block in measure_mixing. bench/micro_kernels' lane table
/// (bench/baselines/micro_kernels.json) times the block step at 1, 2, 4, 8,
/// 10 and 16 lanes; ns per lane-edge stops falling past 8 lanes, and 10
/// keeps a Figure 1 sweep's ten sources in one block.
inline constexpr std::uint32_t kLaneBlockWidth = 10;

/// Widest group the lane kernels are instantiated for.
inline constexpr std::uint32_t kMaxLanes = 16;

namespace lanes {

/// Rows per worker chunk for a gather over `lanes` lanes: the single-vector
/// matvecs keep 2048, wider rows carry proportionally more work.
constexpr std::size_t row_grain(std::uint32_t lanes) { return 2048 / lanes; }

/// scaled(w, l) = p(w, l) / deg(w), one parallel elementwise pass. `scaled`
/// may alias `p`. Isolated vertices yield 0/0 = NaN, but a degree-0 vertex
/// is never a row's target, so those entries are never gathered.
template <std::uint32_t Lanes>
void predivide(const Graph& g, const double* p, double* scaled) {
  const EdgeIndex* const offsets = g.offsets().data();
  parallel::parallel_for(
      0, g.num_vertices(),
      [&](std::size_t v, std::uint32_t) {
        const double degree =
            static_cast<double>(offsets[v + 1] - offsets[v]);
        const double* const in = p + v * Lanes;
        double* const row = scaled + v * Lanes;
        for (std::uint32_t l = 0; l < Lanes; ++l) row[l] = in[l] / degree;
      },
      row_grain(Lanes));
}

/// Row-partitioned gather over pre-divided lanes: for every vertex v,
/// write(v, acc) with acc[l] = sum over v's CSR row, in stored order, of
/// scaled(w, l). Rows are independent, so the result does not depend on
/// the chunking or the thread count.
template <std::uint32_t Lanes, typename Write>
void gather(const Graph& g, const double* scaled, const Write& write) {
  const EdgeIndex* const offsets = g.offsets().data();
  const VertexId* const targets = g.targets().data();
  parallel::parallel_for(
      0, g.num_vertices(),
      [&](std::size_t v, std::uint32_t) {
        double acc[Lanes] = {};
        for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
          const double* const row =
              scaled + static_cast<std::size_t>(targets[i]) * Lanes;
          for (std::uint32_t l = 0; l < Lanes; ++l) acc[l] += row[l];
        }
        write(v, acc);
      },
      row_grain(Lanes));
}

/// Per-thread n-entry scratch for the single-vector steps' pre-divided
/// copy, so concurrent callers on different threads never share it.
double* single_scratch(std::size_t n);

/// One single-vector step: pre-divide `p` into the thread's scratch, then
/// gather with write(v, acc[0]).
template <typename Write>
void step_single(const Graph& g, const double* p, const Write& write) {
  double* const scaled = single_scratch(g.num_vertices());
  predivide<1>(g, p, scaled);
  gather<1>(g, scaled, write);
}

}  // namespace lanes

/// Walk distributions evolved under the plain or lazy chain, in groups:
/// group k holds the next sizes[k] lanes as its own lane-interleaved
/// n x sizes[k] matrix and steps on its own, so groups may be at different
/// steps. All groups share at most three n x lanes allocations: the
/// distributions, the step output (reserve_step, or the first step), and
/// for the lazy chain a separate pre-divided copy — the plain chain
/// pre-divides in place, since its blend never reads p again. A group's
/// distributions and step output trade places at every step.
///
/// Groups are independent. After reserve_step, different groups may step
/// and sum their TVDs on different threads at once; while no group steps,
/// different lanes may be assigned at once.
class LaneBlock {
 public:
  /// One group of `lanes` lanes.
  LaneBlock(const Graph& g, std::uint32_t lanes, StepKind kind);
  /// Groups of sizes[0], sizes[1], ... lanes, numbered in group order.
  /// Every lane starts as the zero vector. Throws std::invalid_argument
  /// unless there is a group, every size is in [1, kMaxLanes], and kind is
  /// kPlain or kLazy.
  LaneBlock(const Graph& g, const std::vector<std::uint32_t>& sizes,
            StepKind kind);

  std::uint32_t lanes() const {
    return static_cast<std::uint32_t>(group_of_.size());
  }

  /// Copies `p` (one entry per vertex) into lane `lane`.
  void assign(std::uint32_t lane, const Distribution& p);
  /// Entry (v, lane) of the current distributions.
  double at(VertexId v, std::uint32_t lane) const;

  /// Allocates the step output, and the lazy chain's pre-divided copy, on
  /// the calling thread; otherwise the first step allocates them.
  void reserve_step();

  /// One step of every lane of group `group`; bitwise step_distribution /
  /// step_distribution_lazy applied to each lane's column.
  void step(std::uint32_t group);

  /// out[j] = TVD against pi of the group's lane j, each lane summed
  /// serially in vertex order — bitwise the saturated fast path of
  /// FrontierWalk::tvd.
  void tvd(std::uint32_t group, const Distribution& pi,
           std::vector<double>& out) const;

 private:
  struct Group {
    std::uint32_t first = 0;  // the group's lanes: [first, first + size)
    std::uint32_t size = 0;
    std::size_t offset = 0;  // n * first: the group's matrix in a buffer
    bool flipped = false;    // current distributions are in buffers_[1]
  };

  void check_group(std::uint32_t group) const;

  const Graph& graph_;
  StepKind kind_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> group_of_;  // lane -> group
  std::vector<double> buffers_[2];       // distributions and step output
  std::vector<double> scaled_;           // lazy chain only: p / degree
};

}  // namespace sntrust
