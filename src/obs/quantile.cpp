#include "obs/quantile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sntrust::obs {

namespace {

constexpr double kQuantileMinValue = 0x1.0p-20;  // 2^kQuantileMinExponent
constexpr double kQuantileMaxValue = 0x1.0p+44;  // 2^kQuantileMaxExponent

/// Folds `value` into a CAS-maintained extremum. The comparison is exact, so
/// the result is the true min/max of the recorded multiset regardless of
/// thread interleaving; NaN never satisfies either comparison and is skipped.
template <typename Better>
void atomic_fold(std::atomic<std::uint64_t>& bits, double value,
                 Better better) {
  std::uint64_t current = bits.load(std::memory_order_relaxed);
  while (better(value, std::bit_cast<double>(current)) &&
         !bits.compare_exchange_weak(current, std::bit_cast<std::uint64_t>(value),
                                     std::memory_order_relaxed))
    ;
}

}  // namespace

double QuantileSnapshot::value_at_quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the order statistic the quantile asks for.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = underflow;
  if (rank <= cumulative) return min;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (rank <= cumulative)
      return std::clamp(QuantileHistogram::bucket_midpoint(i), min, max);
  }
  return max;  // overflow region (or a torn live snapshot): answer the top
}

double QuantileSnapshot::approx_sum() const {
  if (count == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i)
    if (buckets[i] != 0)
      sum += static_cast<double>(buckets[i]) *
             std::clamp(QuantileHistogram::bucket_midpoint(i), min, max);
  // Out-of-range samples are pinned to the exact extremes they define.
  sum += static_cast<double>(underflow) * min;
  sum += static_cast<double>(overflow) * max;
  return sum;
}

bool QuantileSnapshot::operator==(const QuantileSnapshot& other) const {
  return count == other.count && underflow == other.underflow &&
         overflow == other.overflow &&
         std::bit_cast<std::uint64_t>(min) ==
             std::bit_cast<std::uint64_t>(other.min) &&
         std::bit_cast<std::uint64_t>(max) ==
             std::bit_cast<std::uint64_t>(other.max) &&
         buckets == other.buckets;
}

QuantileHistogram::QuantileHistogram()
    : min_bits_(std::bit_cast<std::uint64_t>(
          std::numeric_limits<double>::infinity())),
      max_bits_(std::bit_cast<std::uint64_t>(
          -std::numeric_limits<double>::infinity())) {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

std::size_t QuantileHistogram::bucket_index(double value) {
  if (!(value >= kQuantileMinValue) || value >= kQuantileMaxValue)
    return kQuantileBuckets;
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // in [0.5, 1)
  const int octave = exponent - 1;  // value in [2^octave, 2^(octave+1))
  const auto sub = static_cast<std::size_t>(
      (mantissa * 2.0 - 1.0) * kQuantileSubBuckets);
  return static_cast<std::size_t>(octave - kQuantileMinExponent) *
             kQuantileSubBuckets +
         std::min<std::size_t>(sub, kQuantileSubBuckets - 1);
}

double QuantileHistogram::bucket_midpoint(std::size_t index) {
  const int octave =
      kQuantileMinExponent + static_cast<int>(index / kQuantileSubBuckets);
  const double sub = static_cast<double>(index % kQuantileSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / kQuantileSubBuckets, octave);
}

void QuantileHistogram::record(double value) {
  atomic_fold(min_bits_, value, [](double a, double b) { return a < b; });
  atomic_fold(max_bits_, value, [](double a, double b) { return a > b; });
  if (!(value >= kQuantileMinValue)) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (value >= kQuantileMaxValue) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

QuantileSnapshot QuantileHistogram::snapshot() const {
  QuantileSnapshot snap;
  snap.underflow = underflow_.load(std::memory_order_relaxed);
  snap.overflow = overflow_.load(std::memory_order_relaxed);
  snap.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
  snap.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  // Count is derived from the loaded counters, so a snapshot racing active
  // recorders is still internally consistent (every rank resolves to some
  // loaded bucket); a quiescent snapshot is exact and bitwise deterministic.
  snap.count = snap.underflow + snap.overflow;
  for (std::size_t i = 0; i < kQuantileBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  return snap;
}

void QuantileHistogram::reset() {
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  min_bits_.store(std::bit_cast<std::uint64_t>(
                      std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(std::bit_cast<std::uint64_t>(
                      -std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

}  // namespace sntrust::obs
