#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace sntrust::obs {

std::size_t Histogram::bucket_index(double value) {
  if (!(value >= 1.0)) return 0;  // negatives and NaN land in bucket 0 too
  const auto exponent = static_cast<std::size_t>(std::floor(std::log2(value)));
  return std::min(exponent + 1, kHistogramBuckets - 1);
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The empty snapshot holds the min/max identities (+inf/-inf), so the
  // first observation folds in without a special case.
  data_.min = std::min(data_.min, value);
  data_.max = std::max(data_.max, value);
  ++data_.count;
  data_.sum += value;
  ++data_.buckets[bucket_index(value)];
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

double HistogramSnapshot::value_at_quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (rank > cumulative) continue;
    // Bucket 0 holds values < 1; bucket i >= 1 spans [2^(i-1), 2^i).
    const double midpoint =
        i == 0 ? 0.5 : 1.5 * std::ldexp(1.0, static_cast<int>(i) - 1);
    return std::clamp(midpoint, min, max);
  }
  return max;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  data_ = HistogramSnapshot{};
}

Metrics& Metrics::instance() {
  // Intentionally leaked, like the Tracer: the SNTRUST_REPORT atexit hook
  // snapshots the registry at process exit and must find it alive.
  static Metrics* metrics = new Metrics();
  return *metrics;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

QuantileHistogram& Metrics::quantile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return quantiles_[name];
}

MetricsSnapshot Metrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_)
    out.counters.emplace(name, counter.value());
  for (const auto& [name, gauge] : gauges_)
    out.gauges.emplace(name, gauge.value());
  for (const auto& [name, histogram] : histograms_)
    out.histograms.emplace(name, histogram.snapshot());
  for (const auto& [name, quantile] : quantiles_)
    out.quantiles.emplace(name, quantile.snapshot());
  return out;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter.reset();
  for (auto& [name, gauge] : gauges_) gauge.reset();
  for (auto& [name, histogram] : histograms_) histogram.reset();
  for (auto& [name, quantile] : quantiles_) quantile.reset();
}

void count(const std::string& name, std::uint64_t delta) {
  Metrics::instance().counter(name).add(delta);
}

void set_gauge(const std::string& name, double value) {
  Metrics::instance().gauge(name).set(value);
}

void observe(const std::string& name, double value) {
  Metrics::instance().histogram(name).observe(value);
}

void record_latency(const std::string& name, double ms) {
  Metrics::instance().quantile(name).record(ms);
}

void metrics_reset_all() { Metrics::instance().reset(); }

}  // namespace sntrust::obs
