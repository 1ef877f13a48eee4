#include "obs/quantile.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <new>

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

constexpr std::uint64_t kEmptyMinBits =
    std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
constexpr std::uint64_t kEmptyMaxBits =
    std::bit_cast<std::uint64_t>(-std::numeric_limits<double>::infinity());

}  // namespace

/// One thread's samples. No total-count atomic: snapshot() derives count
/// from the loaded counters, so a live snapshot is internally consistent by
/// construction.
struct alignas(kCacheLineBytes) QuantileHistogram::Shard {
  std::atomic<std::uint64_t> underflow{0};
  std::atomic<std::uint64_t> overflow{0};
  std::atomic<std::uint64_t> min_bits{kEmptyMinBits};  ///< running min
  std::atomic<std::uint64_t> max_bits{kEmptyMaxBits};  ///< running max
  std::array<std::atomic<std::uint64_t>, kQuantileBuckets> buckets{};
};

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

namespace {

// A shard's pages come straight from the kernel, not from the recording
// thread's malloc arena: a thread's first record usually lands in the
// middle of a computation, and a long-lived block carved from its arena
// there fragments it (DESIGN.md §7).
QuantileHistogram::Shard* map_shard() {
  void* pages = mmap(nullptr, sizeof(QuantileHistogram::Shard),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return new (pages) QuantileHistogram::Shard();
}

void unmap_shard(QuantileHistogram::Shard* shard) {
  shard->~Shard();
  munmap(shard, sizeof(QuantileHistogram::Shard));
}

}  // namespace

QuantileHistogram::~QuantileHistogram() {
  for (const std::atomic<Shard*>& slot : shards_)
    if (Shard* shard = slot.load(std::memory_order_relaxed)) unmap_shard(shard);
}

QuantileHistogram::Shard& QuantileHistogram::shard() {
  std::atomic<Shard*>& slot = shards_[thread_slot()];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard != nullptr) return *shard;
  // Only the shared last slot can race here: a lost race keeps the winner's.
  Shard* fresh = map_shard();
  if (slot.compare_exchange_strong(shard, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire))
    return *fresh;
  unmap_shard(fresh);
  return *shard;
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
  Shard& shard = this->shard();
  atomic_fold(shard.min_bits, value, [](double a, double b) { return a < b; });
  atomic_fold(shard.max_bits, value, [](double a, double b) { return a > b; });
  if (!(value >= kQuantileMinValue)) {
    shard.underflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (value >= kQuantileMaxValue) {
    shard.overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

QuantileSnapshot QuantileHistogram::snapshot() const {
  QuantileSnapshot snap;
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    snap.underflow += shard->underflow.load(std::memory_order_relaxed);
    snap.overflow += shard->overflow.load(std::memory_order_relaxed);
    // The same exact comparisons record() folds with, so the fold over
    // shards is the extremum of every recorded sample.
    const double min =
        std::bit_cast<double>(shard->min_bits.load(std::memory_order_relaxed));
    const double max =
        std::bit_cast<double>(shard->max_bits.load(std::memory_order_relaxed));
    if (min < snap.min) snap.min = min;
    if (max > snap.max) snap.max = max;
    for (std::size_t i = 0; i < kQuantileBuckets; ++i)
      snap.buckets[i] += shard->buckets[i].load(std::memory_order_relaxed);
  }
  // Count is derived from the loaded counters, so a snapshot racing active
  // recorders is still internally consistent (every rank resolves to some
  // loaded bucket); a quiescent snapshot is exact and bitwise deterministic.
  snap.count = snap.underflow + snap.overflow;
  for (const std::uint64_t bucket : snap.buckets) snap.count += bucket;
  return snap;
}

void QuantileHistogram::reset() {
  for (const std::atomic<Shard*>& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    shard->underflow.store(0, std::memory_order_relaxed);
    shard->overflow.store(0, std::memory_order_relaxed);
    shard->min_bits.store(kEmptyMinBits, std::memory_order_relaxed);
    shard->max_bits.store(kEmptyMaxBits, std::memory_order_relaxed);
    for (auto& bucket : shard->buckets)
      bucket.store(0, std::memory_order_relaxed);
  }
}

}  // namespace sntrust::obs
