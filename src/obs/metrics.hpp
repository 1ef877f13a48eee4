// Process-wide metrics registry: named counters, gauges, and power-of-two
// histograms instrumenting the measurement pipeline (SLEM matvec counts,
// walk steps, BFS frontier sizes, GateKeeper ticket totals, ...).
//
// Counters and gauges are lock-free after the first lookup; hot paths cache
// the returned reference (`static Counter& c = metrics_counter("walk.steps")`)
// so the steady-state cost is one relaxed atomic add on a cache line only
// the calling thread writes (obs/thread_slot). `snapshot()` gives a
// consistent copy for reports and tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/quantile.hpp"
#include "obs/thread_slot.hpp"

namespace sntrust::obs {

/// Counters a process may register; Metrics::counter throws past it.
inline constexpr std::size_t kMaxCounters = 512;

namespace detail {
/// One thread slot's cell of every counter: a page only that slot's
/// thread writes.
struct alignas(4096) CounterPage {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> cells{};
};
/// Static, zero-filled storage, so no counter allocates (a cell carved
/// from the adding thread's heap mid-computation fragments it, DESIGN.md
/// §7); a page becomes resident once a thread with its slot adds. The
/// last page is shared by threads without a slot.
extern std::array<CounterPage, kThreadSlots + 1> counter_pages;
}  // namespace detail

/// Monotonically increasing event count, sharded by thread: a thread adds
/// to its own slot's page, and value() sums the pages.
class Counter {
 public:
  /// The registry (Metrics::counter) gives every counter its own index.
  explicit Counter(std::size_t index) : index_(index) {}

  void add(std::uint64_t delta = 1) {
    detail::counter_pages[thread_slot()].cells[index_].fetch_add(
        delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  std::size_t index_;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed distribution of non-negative samples: bucket 0
/// holds values < 1, bucket i >= 1 holds values in [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 64;

/// Empty-histogram contract: when `count == 0`, `min` is +infinity and
/// `max` is -infinity (the identity elements of min/max, so folds over
/// snapshots stay correct), `sum` is 0, `mean()` is 0, and
/// `value_at_quantile()` returns NaN. Renderers that cannot encode
/// infinities or NaN (JSON reports, tables) must gate on `count > 0`.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(kHistogramBuckets, 0);

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Coarse quantile over the power-of-two buckets: the midpoint of the
  /// bucket holding rank ceil(q * count), clamped to [min, max]. NaN when
  /// `count == 0` (the empty-histogram contract). For tight estimates use
  /// the dedicated QuantileHistogram; this exists so every histogram can
  /// answer the question at octave resolution.
  double value_at_quantile(double q) const;
};

class Histogram {
 public:
  void observe(double value);
  HistogramSnapshot snapshot() const;
  void reset();

  /// Bucket index a value lands in (exposed for tests).
  static std::size_t bucket_index(double value);

 private:
  mutable std::mutex mutex_;
  HistogramSnapshot data_;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Cumulative quantile histograms (whole-run latency distributions).
  std::map<std::string, QuantileSnapshot> quantiles;
};

/// Registry of all metrics in the process. Registration is mutex-guarded;
/// returned references stay valid for the process lifetime (node-based
/// storage), so call sites may cache them.
class Metrics {
 public:
  static Metrics& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  QuantileHistogram& quantile(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered metric in place (registered references stay
  /// valid). Tests and long-lived sweeps use this between runs.
  void reset();

 private:
  Metrics() = default;
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, QuantileHistogram> quantiles_;
};

/// Convenience forwarders for cold call sites.
void count(const std::string& name, std::uint64_t delta = 1);
void set_gauge(const std::string& name, double value);
void observe(const std::string& name, double value);

/// Records a latency sample (milliseconds) into the quantile histogram
/// `name`. Hot paths should cache the reference (metrics_quantile) instead.
void record_latency(const std::string& name, double ms);

/// Zeroes every registered counter, gauge, and histogram in the process.
/// Test fixtures call this in SetUp so metric assertions are isolated from
/// whatever other suites ran earlier in the same process.
void metrics_reset_all();

/// Cached-handle helpers for hot call sites.
inline Counter& metrics_counter(const std::string& name) {
  return Metrics::instance().counter(name);
}
inline Histogram& metrics_histogram(const std::string& name) {
  return Metrics::instance().histogram(name);
}
inline QuantileHistogram& metrics_quantile(const std::string& name) {
  return Metrics::instance().quantile(name);
}

}  // namespace sntrust::obs
