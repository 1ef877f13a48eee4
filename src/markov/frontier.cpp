#include "markov/frontier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "markov/modulated.hpp"
#include "markov/transition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"

namespace sntrust {

namespace {

/// Candidate rows per worker chunk for the sparse pull: each row is a short
/// gather, so small frontiers stay inline.
constexpr std::size_t kSparseGrain = 1024;

}  // namespace

StationaryPrefix::StationaryPrefix(const Distribution& pi)
    : prefix_(pi.size() + 1, 0.0) {
  for (std::size_t v = 0; v < pi.size(); ++v)
    prefix_[v + 1] = prefix_[v] + pi[v];
}

double support_tvd(const Distribution& p, const std::vector<VertexId>& support,
                   const Distribution& pi, const StationaryPrefix& prefix) {
  if (p.size() != pi.size() || prefix.size() != pi.size())
    throw std::invalid_argument("support_tvd: size mismatch");
  double diff = 0.0;  // sum over support of |p - pi|
  double tail = 0.0;  // stationary mass outside the support, gap by gap
  VertexId cursor = 0;
  for (const VertexId v : support) {
    tail += prefix.range_mass(cursor, v);
    diff += std::fabs(p[v] - pi[v]);
    cursor = v + 1;
  }
  tail += prefix.range_mass(cursor, static_cast<VertexId>(pi.size()));
  return 0.5 * (diff + tail);
}

FrontierWalk::FrontierWalk(const Graph& g) : FrontierWalk(g, Options{}) {}

FrontierWalk::FrontierWalk(const Graph& g, const Options& options)
    : graph_(g),
      dense_fraction_(options.dense_fraction),
      p_(g.num_vertices(), 0.0),
      buffer_(g.num_vertices(), 0.0),
      seen_(g.num_vertices(), 0),
      sparse_steps_(obs::metrics_counter("kernel.sparse_steps")),
      dense_steps_(obs::metrics_counter("kernel.dense_steps")),
      frontier_edges_(obs::metrics_counter("kernel.frontier_edges")),
      step_latency_(obs::metrics_quantile("kernel.step_ms")) {}

void FrontierWalk::reset(VertexId source) {
  const VertexId n = graph_.num_vertices();
  if (source >= n)
    throw std::out_of_range("FrontierWalk::reset: source out of range");
  if (saturated_) {
    std::fill(p_.begin(), p_.end(), 0.0);
  } else {
    for (const VertexId v : support_) p_[v] = 0.0;
  }
  p_[source] = 1.0;
  support_.assign(1, source);
  saturated_ = n == 1;
  last_step_dense_ = false;
  last_frontier_degree_ = 0;
}

void FrontierWalk::build_candidates(bool include_support) {
  candidates_.clear();
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear markers and restart epochs
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const auto& offsets = graph_.offsets();
  const auto& targets = graph_.targets();
  if (include_support) {
    for (const VertexId v : support_) {
      seen_[v] = epoch_;
      candidates_.push_back(v);
    }
  }
  for (const VertexId v : support_) {
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = targets[i];
      if (seen_[w] != epoch_) {
        seen_[w] = epoch_;
        candidates_.push_back(w);
      }
    }
  }
  // Large candidate sets are cheaper to re-collect in order by scanning the
  // epoch marks than to sort; both produce the same ascending list.
  const VertexId n = graph_.num_vertices();
  if (candidates_.size() >= n / 8) {
    candidates_.clear();
    for (VertexId v = 0; v < n; ++v)
      if (seen_[v] == epoch_) candidates_.push_back(v);
  } else {
    std::sort(candidates_.begin(), candidates_.end());
  }
  EdgeIndex degree = 0;
  for (const VertexId v : candidates_)
    degree += offsets[v + 1] - offsets[v];
  last_frontier_degree_ = degree;
}

void FrontierWalk::clear_buffer() {
  if (buffer_saturated_) {
    std::fill(buffer_.begin(), buffer_.end(), 0.0);
    buffer_saturated_ = false;
  } else {
    for (const VertexId v : buffer_support_) buffer_[v] = 0.0;
  }
}

void FrontierWalk::dense_step(StepKind kind, double alpha) {
  switch (kind) {
    case StepKind::kPlain:
      step_distribution(graph_, p_, buffer_);
      break;
    case StepKind::kLazy:
      step_distribution_lazy(graph_, p_, buffer_);
      break;
    case StepKind::kModulated:
      step_modulated(graph_, p_, buffer_, alpha);
      break;
  }
}

void FrontierWalk::sparse_step(StepKind kind, double alpha) {
  const auto& offsets = graph_.offsets();
  const auto& targets = graph_.targets();
  const Distribution& p = p_;
  // Each candidate row accumulates exactly the nonzero terms of its full
  // CSR-order adjacency scan, in the same ascending order — the identical
  // summation the dense kernels perform for that row, so sparse and dense
  // results are bitwise equal. For rows much longer than the support, the
  // surviving terms are row ∩ support: walking the (ascending) support and
  // binary-searching each vertex in the sorted row enumerates the same
  // terms in the same order at O(|supp| log deg) instead of O(deg).
  const std::size_t support_size = support_.size();
  parallel::parallel_for(
      0, candidates_.size(),
      [&](std::size_t idx, std::uint32_t) {
        const VertexId v = candidates_[idx];
        const EdgeIndex row_begin = offsets[v];
        const EdgeIndex row_end = offsets[v + 1];
        double acc = 0.0;
        if (support_size * 4 < row_end - row_begin) {
          const VertexId* row = targets.data();
          EdgeIndex lo = row_begin;
          for (const VertexId w : support_) {
            if (p[w] == 0.0) continue;
            const VertexId* it =
                std::lower_bound(row + lo, row + row_end, w);
            lo = static_cast<EdgeIndex>(it - row);
            if (lo < row_end && row[lo] == w) {
              acc += p[w] / static_cast<double>(offsets[w + 1] - offsets[w]);
              ++lo;
            }
          }
        } else {
          for (EdgeIndex i = row_begin; i < row_end; ++i) {
            const VertexId w = targets[i];
            if (p[w] == 0.0) continue;
            acc += p[w] / static_cast<double>(offsets[w + 1] - offsets[w]);
          }
        }
        switch (kind) {
          case StepKind::kPlain:
            buffer_[v] = acc;
            break;
          case StepKind::kLazy:
            buffer_[v] = 0.5 * acc + 0.5 * p[v];
            break;
          case StepKind::kModulated:
            buffer_[v] = alpha * p[v] + (1.0 - alpha) * acc;
            break;
        }
      },
      kSparseGrain);
}

void FrontierWalk::step(StepKind kind, double alpha) {
  if (kind == StepKind::kModulated && (alpha < 0.0 || alpha >= 1.0))
    throw std::invalid_argument("FrontierWalk::step: alpha must be in [0,1)");

  const obs::Stopwatch step_clock;
  if (saturated_) {
    // Full support is a fixed point of the frontier expansion (every vertex
    // of a graph without isolated vertices has a neighbour in it), so the
    // walk stays dense; the bookkeeping is dropped entirely.
    dense_step(kind, alpha);
    std::swap(p_, buffer_);
    buffer_saturated_ = true;
    dense_steps_.add(1);
    last_step_dense_ = true;
    last_frontier_degree_ = 0;
    step_latency_.record(step_clock.elapsed_ms());
    return;
  }

  // Structural support evolution: the next support is exactly the candidate
  // row set, computed identically for either kernel so TVD grouping (and
  // thus every curve value) never depends on the crossover.
  build_candidates(/*include_support=*/kind != StepKind::kPlain);

  const bool dense =
      static_cast<double>(last_frontier_degree_) >=
      dense_fraction_ * static_cast<double>(graph_.targets().size());

  if (dense) {
    dense_step(kind, alpha);  // overwrites every row; no pre-clear needed
    buffer_saturated_ = false;
  } else {
    clear_buffer();
    sparse_step(kind, alpha);
    frontier_edges_.add(last_frontier_degree_);
  }

  std::swap(p_, buffer_);
  std::swap(support_, buffer_support_);  // buffer keeps the old support
  std::swap(support_, candidates_);      // p takes the candidate rows
  if (support_.size() == graph_.num_vertices()) saturated_ = true;

  if (dense) dense_steps_.add(1);
  else sparse_steps_.add(1);
  last_step_dense_ = dense;
  step_latency_.record(step_clock.elapsed_ms());
}

double FrontierWalk::tvd(const Distribution& pi,
                         const StationaryPrefix& prefix) const {
  if (!saturated_) return support_tvd(p_, support_, pi, prefix);
  if (p_.size() != pi.size() || prefix.size() != pi.size())
    throw std::invalid_argument("FrontierWalk::tvd: size mismatch");
  // Full-support fast path: bitwise equal to support_tvd over all vertices
  // (every gap is empty, so the tail term is exactly +0.0).
  double diff = 0.0;
  for (std::size_t v = 0; v < p_.size(); ++v)
    diff += std::fabs(p_[v] - pi[v]);
  return 0.5 * diff;
}

}  // namespace sntrust
