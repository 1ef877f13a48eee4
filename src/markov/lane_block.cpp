#include "markov/lane_block.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace sntrust {

namespace {

/// Calls f(std::integral_constant<std::uint32_t, count>{}) so every block
/// width runs a kernel with a compile-time lane count.
template <typename F, std::uint32_t... Is>
void dispatch_lanes(std::uint32_t count, const F& f,
                    std::integer_sequence<std::uint32_t, Is...>) {
  (void)((count == Is + 1 &&
          (f(std::integral_constant<std::uint32_t, Is + 1>{}), true)) ||
         ...);
}

template <typename F>
void with_lanes(std::uint32_t count, const F& f) {
  dispatch_lanes(count, f,
                 std::make_integer_sequence<std::uint32_t, kMaxLanes>{});
}

}  // namespace

namespace lanes {

double* single_scratch(std::size_t n) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < n) {
    // Exactly n, and the old buffer goes first: a graph that grows by a
    // batch at a time never holds two scratch copies at once.
    scratch = std::vector<double>();
    scratch.resize(n);
  }
  return scratch.data();
}

}  // namespace lanes

LaneBlock::LaneBlock(const Graph& g, std::uint32_t lanes, StepKind kind)
    : LaneBlock(g, std::vector<std::uint32_t>{lanes}, kind) {}

LaneBlock::LaneBlock(const Graph& g, const std::vector<std::uint32_t>& sizes,
                     StepKind kind)
    : graph_(g), kind_(kind) {
  if (sizes.empty())
    throw std::invalid_argument("LaneBlock: need at least one group");
  if (kind != StepKind::kPlain && kind != StepKind::kLazy)
    throw std::invalid_argument("LaneBlock: only plain and lazy chains");
  const std::size_t n = g.num_vertices();
  for (const std::uint32_t size : sizes) {
    if (size == 0 || size > kMaxLanes)
      throw std::invalid_argument("LaneBlock: lanes must be in [1, 16]");
    Group group;
    group.first = static_cast<std::uint32_t>(group_of_.size());
    group.size = size;
    group.offset = n * group.first;
    group_of_.insert(group_of_.end(), size,
                     static_cast<std::uint32_t>(groups_.size()));
    groups_.push_back(group);
  }
  buffers_[0].assign(n * group_of_.size(), 0.0);
}

void LaneBlock::check_group(std::uint32_t group) const {
  if (group >= groups_.size())
    throw std::out_of_range("LaneBlock: group out of range");
}

void LaneBlock::assign(std::uint32_t lane, const Distribution& p) {
  if (lane >= lanes())
    throw std::out_of_range("LaneBlock::assign: lane out of range");
  if (p.size() != graph_.num_vertices())
    throw std::invalid_argument("LaneBlock::assign: size mismatch");
  const Group& group = groups_[group_of_[lane]];
  double* const column = buffers_[group.flipped].data() + group.offset +
                         (lane - group.first);
  for (std::size_t v = 0; v < p.size(); ++v) column[v * group.size] = p[v];
}

double LaneBlock::at(VertexId v, std::uint32_t lane) const {
  const Group& group = groups_[group_of_[lane]];
  return buffers_[group.flipped][group.offset +
                                 static_cast<std::size_t>(v) * group.size +
                                 (lane - group.first)];
}

void LaneBlock::reserve_step() {
  buffers_[1].resize(buffers_[0].size());
  if (kind_ == StepKind::kLazy) scaled_.resize(buffers_[0].size());
}

void LaneBlock::step(std::uint32_t index) {
  check_group(index);
  reserve_step();
  Group& group = groups_[index];
  const bool lazy = kind_ == StepKind::kLazy;
  double* const p = buffers_[group.flipped].data() + group.offset;
  double* const next = buffers_[!group.flipped].data() + group.offset;
  double* const scaled = lazy ? scaled_.data() + group.offset : p;
  with_lanes(group.size, [&](auto width) {
    constexpr std::uint32_t L = decltype(width)::value;
    lanes::predivide<L>(graph_, p, scaled);
    if (lazy) {
      lanes::gather<L>(graph_, scaled, [&](std::size_t v, const double* acc) {
        const double* const in = p + v * L;
        double* const out = next + v * L;
        for (std::uint32_t l = 0; l < L; ++l)
          out[l] = 0.5 * acc[l] + 0.5 * in[l];
      });
    } else {
      lanes::gather<L>(graph_, scaled, [&](std::size_t v, const double* acc) {
        double* const out = next + v * L;
        for (std::uint32_t l = 0; l < L; ++l) out[l] = acc[l];
      });
    }
  });
  group.flipped = !group.flipped;
}

void LaneBlock::tvd(std::uint32_t index, const Distribution& pi,
                    std::vector<double>& out) const {
  check_group(index);
  const Group& group = groups_[index];
  const std::size_t n = graph_.num_vertices();
  if (pi.size() != n)
    throw std::invalid_argument("LaneBlock::tvd: size mismatch");
  out.resize(group.size);
  const double* const p = buffers_[group.flipped].data() + group.offset;
  with_lanes(group.size, [&](auto width) {
    constexpr std::uint32_t L = decltype(width)::value;
    double diff[L] = {};
    for (std::size_t v = 0; v < n; ++v) {
      const double target = pi[v];
      const double* const row = p + v * L;
      for (std::uint32_t l = 0; l < L; ++l)
        diff[l] += std::fabs(row[l] - target);
    }
    for (std::uint32_t l = 0; l < L; ++l) out[l] = 0.5 * diff[l];
  });
}

}  // namespace sntrust
