#include "obs/diag.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.hpp"

namespace sntrust::obs {

namespace {

// z for a two-sided 95% interval.
constexpr double kZ95 = 1.959963984540054;

std::atomic<bool> g_diag_enabled{false};

}  // namespace

bool diag_enabled() { return g_diag_enabled.load(std::memory_order_relaxed); }

void set_diag_enabled(bool enabled) {
  g_diag_enabled.store(enabled, std::memory_order_relaxed);
}

ConvergenceTrace::ConvergenceTrace(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 4)) {
  samples_.reserve(capacity_ + 1);
}

void ConvergenceTrace::add(double value) {
  const std::uint64_t iteration = next_iteration_++;
  last_value_ = value;
  if (iteration % stride_ != 0) return;
  samples_.emplace_back(iteration, value);
  if (samples_.size() > capacity_) thin();
}

void ConvergenceTrace::thin() {
  // Keep every other sample (even positions keep the first) and double the
  // stride; iteration numbers stay multiples of the new stride, so future
  // appends continue the same geometric skeleton.
  std::size_t write = 0;
  for (std::size_t read = 0; read < samples_.size(); read += 2)
    samples_[write++] = samples_[read];
  samples_.resize(write);
  stride_ *= 2;
}

std::vector<std::pair<std::uint64_t, double>> ConvergenceTrace::points()
    const {
  std::vector<std::pair<std::uint64_t, double>> out = samples_;
  if (next_iteration_ == 0) return out;
  const std::uint64_t last = next_iteration_ - 1;
  if (out.empty() || out.back().first != last)
    out.emplace_back(last, last_value_);
  return out;
}

double ConvergenceTrace::fitted_decay_rate() const {
  // Log-linear least squares over the kept positive samples: ln(v) = a - r*t.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::uint64_t n = 0;
  for (const auto& [iteration, value] : points()) {
    if (!(value > 0.0)) continue;
    const double x = static_cast<double>(iteration);
    const double y = std::log(value);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  const double slope = (static_cast<double>(n) * sxy - sx * sy) / denom;
  return -slope;
}

std::uint64_t ConvergenceTrace::plateau_iteration(double rel_tol,
                                                  double abs_floor) const {
  const auto pts = points();
  if (pts.empty()) return 0;
  const double final_value = pts.back().second;
  const double tolerance =
      rel_tol * std::max(std::fabs(final_value), abs_floor);
  // Walk backwards to the last sample still outside the tolerance band; the
  // plateau starts at the next kept sample.
  std::size_t onset = 0;
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (std::fabs(pts[i].second - final_value) > tolerance) {
      onset = i + 1;
      break;
    }
  }
  if (onset >= pts.size()) return pts.back().first;
  return pts[onset].first;
}

ConfidenceInterval mean_ci95(double sum, double sumsq, std::uint64_t n) {
  ConfidenceInterval ci;
  if (n == 0) return ci;
  const double count = static_cast<double>(n);
  ci.mean = sum / count;
  ci.lo = ci.hi = ci.mean;
  ci.n = n;
  ci.ess = count;
  if (n < 2) return ci;
  const double variance = (sumsq - sum * sum / count) / (count - 1.0);
  if (!(variance > 0.0)) return ci;
  const double half = kZ95 * std::sqrt(variance / count);
  ci.lo = ci.mean - half;
  ci.hi = ci.mean + half;
  return ci;
}

ConfidenceInterval wilson_ci95(std::uint64_t successes,
                               std::uint64_t trials) {
  ConfidenceInterval ci;
  if (trials == 0) return ci;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = kZ95 * kZ95;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      kZ95 * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ci.mean = p;
  ci.lo = std::max(0.0, center - half);
  ci.hi = std::min(1.0, center + half);
  ci.n = trials;
  ci.ess = n;
  return ci;
}

TraceSummary summarize_trace(const std::string& kind, std::uint64_t source,
                             const ConvergenceTrace& trace, bool converged) {
  TraceSummary summary;
  summary.kind = kind;
  summary.source = source;
  summary.iterations = trace.iterations();
  summary.converged = converged;
  summary.final_value = trace.final_value();
  summary.decay_rate = trace.fitted_decay_rate();
  summary.plateau_iteration = trace.plateau_iteration();
  summary.points = trace.points();
  return summary;
}

DiagRegistry& DiagRegistry::instance() {
  // Leaked on purpose: the run-report atexit hook reads the registry at
  // process exit (see RunReporter::instance for the same pattern).
  static DiagRegistry* registry = new DiagRegistry();
  return *registry;
}

void DiagRegistry::record_trace(TraceSummary summary) {
  // Trace summaries also ride along in telemetry frames via the metrics
  // registry: a monotone trace count plus per-kind last-value gauges.
  count("diag.traces");
  set_gauge("diag." + summary.kind + ".decay_rate", summary.decay_rate);
  set_gauge("diag." + summary.kind + ".final_value", summary.final_value);
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t of_kind = 0;
  for (const TraceSummary& existing : traces_)
    if (existing.kind == summary.kind) ++of_kind;
  if (of_kind >= kDiagMaxTracesPerKind) {
    ++dropped_traces_;
    return;
  }
  traces_.push_back(std::move(summary));
}

void DiagRegistry::record_estimate(const std::string& name,
                                   const ConfidenceInterval& ci) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string unique = name;
  for (std::uint64_t suffix = 2;; ++suffix) {
    bool taken = false;
    for (const auto& entry : estimates_)
      if (entry.first == unique) {
        taken = true;
        break;
      }
    if (!taken) break;
    unique = name + "#" + std::to_string(suffix);
  }
  estimates_.emplace_back(std::move(unique), ci);
}

void DiagRegistry::record_nonconverged(const std::string& kind,
                                       std::uint64_t source,
                                       std::uint64_t iterations,
                                       double final_value) {
  count("diag.nonconverged");
  std::lock_guard<std::mutex> lock(mutex_);
  flagged_.push_back(Flagged{kind, source, iterations, final_value});
}

bool DiagRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return traces_.empty() && estimates_.empty() && flagged_.empty();
}

void DiagRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  traces_.clear();
  estimates_.clear();
  flagged_.clear();
  dropped_traces_ = 0;
}

json::Value DiagRegistry::build() const {
  std::vector<TraceSummary> traces;
  std::vector<std::pair<std::string, ConfidenceInterval>> estimates;
  std::vector<Flagged> flagged;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    traces = traces_;
    estimates = estimates_;
    flagged = flagged_;
    dropped = dropped_traces_;
  }

  json::Object root;
  root.emplace_back("converged", json::Value::boolean(flagged.empty()));
  root.emplace_back("nonconverged", json::Value::integer(static_cast<std::int64_t>(
                                        flagged.size())));
  root.emplace_back("epsilon", json::Value::number(kDiagEpsilon));

  json::Array flagged_rows;
  flagged_rows.reserve(flagged.size());
  for (const Flagged& flag : flagged) {
    json::Object row;
    row.emplace_back("kind", json::Value::string(flag.kind));
    row.emplace_back("source", json::Value::integer(static_cast<std::int64_t>(
                                   flag.source)));
    row.emplace_back("iterations",
                     json::Value::integer(
                         static_cast<std::int64_t>(flag.iterations)));
    row.emplace_back("final_value", json::Value::number(flag.final_value));
    flagged_rows.push_back(json::Value::object(std::move(row)));
  }
  root.emplace_back("flagged_sources",
                    json::Value::array(std::move(flagged_rows)));

  json::Object estimate_rows;
  for (const auto& [name, ci] : estimates) {
    json::Object entry;
    entry.emplace_back("mean", json::Value::number(ci.mean));
    entry.emplace_back("ci95_lo", json::Value::number(ci.lo));
    entry.emplace_back("ci95_hi", json::Value::number(ci.hi));
    entry.emplace_back("ci95_width", json::Value::number(ci.width()));
    entry.emplace_back("n", json::Value::integer(static_cast<std::int64_t>(
                                ci.n)));
    entry.emplace_back("ess", json::Value::number(ci.ess));
    estimate_rows.emplace_back(name, json::Value::object(std::move(entry)));
  }
  root.emplace_back("estimates", json::Value::object(std::move(estimate_rows)));

  // Traces grouped by kind, preserving per-kind recording order.
  std::vector<std::pair<std::string, json::Array>> groups;
  for (const TraceSummary& trace : traces) {
    json::Object row;
    row.emplace_back("source", json::Value::integer(static_cast<std::int64_t>(
                                   trace.source)));
    row.emplace_back("iterations",
                     json::Value::integer(
                         static_cast<std::int64_t>(trace.iterations)));
    row.emplace_back("converged", json::Value::boolean(trace.converged));
    row.emplace_back("decay_rate", json::Value::number(trace.decay_rate));
    row.emplace_back("plateau_iteration",
                     json::Value::integer(static_cast<std::int64_t>(
                         trace.plateau_iteration)));
    row.emplace_back("final_value", json::Value::number(trace.final_value));
    json::Array point_rows;
    point_rows.reserve(trace.points.size());
    for (const auto& [iteration, value] : trace.points) {
      json::Array pair;
      pair.push_back(
          json::Value::integer(static_cast<std::int64_t>(iteration)));
      pair.push_back(json::Value::number(value));
      point_rows.push_back(json::Value::array(std::move(pair)));
    }
    row.emplace_back("points", json::Value::array(std::move(point_rows)));

    json::Array* group = nullptr;
    for (auto& entry : groups)
      if (entry.first == trace.kind) {
        group = &entry.second;
        break;
      }
    if (group == nullptr) {
      groups.emplace_back(trace.kind, json::Array{});
      group = &groups.back().second;
    }
    group->push_back(json::Value::object(std::move(row)));
  }
  json::Object trace_groups;
  for (auto& [kind, rows] : groups)
    trace_groups.emplace_back(kind, json::Value::array(std::move(rows)));
  root.emplace_back("traces", json::Value::object(std::move(trace_groups)));
  if (dropped > 0)
    root.emplace_back("dropped_traces",
                      json::Value::integer(static_cast<std::int64_t>(dropped)));

  return json::Value::object(std::move(root));
}

}  // namespace sntrust::obs
