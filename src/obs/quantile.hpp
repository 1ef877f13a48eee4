// Log-bucketed quantile histograms (HDR-style) for latency distributions.
//
// `QuantileHistogram` divides every power-of-two octave into
// `kQuantileSubBuckets` linear sub-buckets, so `value_at_quantile(q)` carries
// a bounded *relative* error of at most `kQuantileRelativeError`
// (= 1 / (2 * kQuantileSubBuckets), ~1.6%): a bucket within octave
// [2^o, 2^(o+1)) spans 2^o / kQuantileSubBuckets and the estimator answers
// with the bucket midpoint clamped to the exact observed [min, max].
//
// Recording is lock-free — one relaxed fetch_add on the bucket counter plus
// CAS-maintained exact min/max, all in the calling thread's own shard
// (obs/thread_slot) — and every piece of state is an integer counter or an
// order-independent fold, so two histograms fed the same multiset of
// samples from any number of threads in any order snapshot *bitwise
// identically*: a snapshot sums the shards' counters and folds their exact
// min/max (no accumulated floating-point sum whose rounding would depend on
// arrival order; `approx_sum()` is derived from the buckets on demand
// instead).
//
// Empty-histogram contract (mirrors HistogramSnapshot): when `count == 0`,
// `min`/`max` hold the +inf/-inf fold identities and `value_at_quantile`
// returns NaN — renderers must gate on `count > 0`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/thread_slot.hpp"

namespace sntrust::obs {

/// Linear sub-buckets per power-of-two octave. 32 keeps the whole bucket
/// array at 2048 counters (16 KiB) while bounding quantile error to ~1.6%.
inline constexpr std::uint32_t kQuantileSubBuckets = 32;
/// Smallest/largest finite octave: values in [2^-20, 2^44) ms — about one
/// nanosecond to eleven days when samples are milliseconds — resolve to a
/// bucket; anything outside lands in the underflow/overflow counters.
inline constexpr int kQuantileMinExponent = -20;
inline constexpr int kQuantileMaxExponent = 44;
inline constexpr std::size_t kQuantileBuckets =
    static_cast<std::size_t>(kQuantileMaxExponent - kQuantileMinExponent) *
    kQuantileSubBuckets;
/// Documented bound on |estimate - exact| / exact for value_at_quantile over
/// in-range samples; pinned by test_obs.
inline constexpr double kQuantileRelativeError =
    1.0 / (2.0 * kQuantileSubBuckets);

/// Consistent copy of a quantile histogram.
/// Integer bucket counts plus exact min/max; all derived statistics are pure
/// functions of this state, so equal snapshots give equal answers.
struct QuantileSnapshot {
  std::uint64_t count = 0;
  std::uint64_t underflow = 0;  ///< samples below 2^kQuantileMinExponent (or <= 0)
  std::uint64_t overflow = 0;   ///< samples at or above 2^kQuantileMaxExponent
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(kQuantileBuckets, 0);

  /// Value at quantile q in [0, 1] (clamped). NaN when `count == 0` — the
  /// empty-histogram contract. Otherwise the midpoint of the bucket holding
  /// rank ceil(q * count), clamped to [min, max]; underflow ranks answer
  /// `min`, overflow ranks answer `max`.
  double value_at_quantile(double q) const;

  /// Sum estimated from bucket midpoints (clamped to [min, max] per bucket);
  /// deterministic but only bucket-resolution accurate. 0 when empty.
  double approx_sum() const;
  double approx_mean() const {
    return count == 0 ? 0.0 : approx_sum() / static_cast<double>(count);
  }

  bool operator==(const QuantileSnapshot& other) const;
};

/// Cumulative quantile histogram; the registry hands out stable references
/// (see Metrics::quantile) so hot paths cache them.
class QuantileHistogram {
 public:
  QuantileHistogram() = default;
  ~QuantileHistogram();
  QuantileHistogram(const QuantileHistogram&) = delete;
  QuantileHistogram& operator=(const QuantileHistogram&) = delete;

  /// Records one sample into the calling thread's shard, which its first
  /// record maps (16 KiB, no heap allocation). Lock-free: a relaxed add on
  /// the owning bucket and CAS folds of exact min/max. NaN samples count as
  /// underflow and leave min/max untouched.
  void record(double value);

  /// Sums the shards. Safe while others record; reset() zeroes the shards
  /// in place, so references to the histogram stay valid.
  QuantileSnapshot snapshot() const;
  void reset();

  /// Bucket index a finite in-range value lands in (exposed for tests);
  /// values below/above the tracked range return kQuantileBuckets (sentinel:
  /// use underflow/overflow).
  static std::size_t bucket_index(double value);
  /// Midpoint of bucket i — the estimator's representative value.
  static double bucket_midpoint(std::size_t index);

  /// One thread's samples (quantile.cpp).
  struct Shard;

 private:
  /// The calling thread's shard, mapped on its first record.
  Shard& shard();

  /// One shard per thread slot, null until that slot's first record; the
  /// last one is shared by threads that have no slot.
  std::array<std::atomic<Shard*>, kThreadSlots + 1> shards_{};
};

}  // namespace sntrust::obs
