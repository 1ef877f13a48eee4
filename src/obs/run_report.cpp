#include "obs/run_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#ifdef __GLIBC__
#include <errno.h>  // program_invocation_short_name
#endif

namespace sntrust::obs {

namespace {

std::string default_tool_name() {
#ifdef __GLIBC__
  if (program_invocation_short_name != nullptr)
    return program_invocation_short_name;
#endif
  return "unknown";
}

// Compiler identity baked in at compile time, for provenance diffs.
std::string compiler_version() {
#if defined(__clang__)
  return std::string{"clang "} + __VERSION__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

RunReporter::RunReporter() : wall_start_(std::chrono::steady_clock::now()) {
  // Armed unconditionally; the hook no-ops while export_path_ is empty.
  // Telemetry's stop hook, registered later, runs before it.
  std::atexit([] {
    // Throwing from an atexit handler is std::terminate; report instead.
    try {
      RunReporter::instance().export_now();
    } catch (const std::exception& error) {
      std::fputs(error.what(), stderr);
      std::fputc('\n', stderr);
    }
  });
}

RunReporter& RunReporter::instance() {
  // Intentionally leaked, like the Tracer: the atexit hook registered in
  // the constructor must find the reporter alive at process exit.
  static RunReporter* reporter = new RunReporter();
  return *reporter;
}

void RunReporter::set_export_path(std::string path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    export_path_ = std::move(path);
  }
  if (!export_path().empty()) Tracer::instance().enable();
}

std::string RunReporter::export_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return export_path_;
}

void RunReporter::set_config_value(const std::string& key, json::Value value) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : config_) {
    if (entry.first == key) {
      entry.second = std::move(value);
      return;
    }
  }
  config_.emplace_back(key, std::move(value));
}

void RunReporter::set_config(const std::string& key, std::string value) {
  set_config_value(key, json::Value::string(std::move(value)));
}

void RunReporter::set_config(const std::string& key, const char* value) {
  set_config_value(key, json::Value::string(value));
}

void RunReporter::set_config(const std::string& key, double value) {
  set_config_value(key, json::Value::number(value));
}

void RunReporter::set_config(const std::string& key, bool value) {
  set_config_value(key, json::Value::boolean(value));
}

void RunReporter::set_interrupted(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  interrupted_ = reason.empty() ? "interrupted" : reason;
}

json::Value RunReporter::build() const {
  json::Object root;
  root.emplace_back("schema_version",
                    json::Value::integer(kRunReportSchemaVersion));

  std::vector<std::pair<std::string, json::Value>> config;
  std::string interrupted;
  std::chrono::steady_clock::time_point wall_start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    config = config_;
    interrupted = interrupted_;
    wall_start = wall_start_;
  }
  root.emplace_back("tool", json::Value::string(default_tool_name()));

  // Config: the build's provenance (compiler and flags, baked in at compile
  // time), then the entries set_config recorded: exec::apply's effective
  // knobs and each tool's own keys.
  json::Object config_object;
  config_object.emplace_back("compiler",
                             json::Value::string(compiler_version()));
#ifdef SNTRUST_BUILD_FLAGS
  config_object.emplace_back("build_flags",
                             json::Value::string(SNTRUST_BUILD_FLAGS));
#endif
  for (auto& entry : config)
    config_object.emplace_back(entry.first, std::move(entry.second));
  root.emplace_back("config", json::Value::object(std::move(config_object)));

  // Interruption (additive: present only when the run was interrupted, so
  // schema 1 consumers that look up sections by key are unaffected).
  if (!interrupted.empty()) {
    json::Object exec;
    exec.emplace_back("interrupted", json::Value::string(interrupted));
    root.emplace_back("exec", json::Value::object(std::move(exec)));
  }

  // Totals: wall since the reporter existed, everything else cumulative for
  // the process (see header).
  const ResourceUsage usage = resource_usage_now();
  const double wall_ms =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count() /
      1e6;
  json::Object totals;
  totals.emplace_back("wall_ms", json::Value::number(wall_ms));
  totals.emplace_back("user_cpu_ms",
                      json::Value::number(usage.user_cpu_ns / 1e6));
  totals.emplace_back("system_cpu_ms",
                      json::Value::number(usage.system_cpu_ns / 1e6));
  totals.emplace_back("cpu_ms", json::Value::number(usage.cpu_ns() / 1e6));
  totals.emplace_back(
      "peak_rss_bytes",
      json::Value::integer(static_cast<std::int64_t>(usage.peak_rss_bytes)));
  totals.emplace_back(
      "alloc_bytes",
      json::Value::integer(static_cast<std::int64_t>(usage.alloc_bytes)));
  totals.emplace_back(
      "alloc_count",
      json::Value::integer(static_cast<std::int64_t>(usage.alloc_count)));
  totals.emplace_back(
      "free_count",
      json::Value::integer(static_cast<std::int64_t>(usage.free_count)));
  root.emplace_back("totals", json::Value::object(std::move(totals)));

  // Span table: the tracer's per-path aggregation with resource columns.
  json::Array spans;
  const TraceAggregate aggregate = Tracer::instance().aggregate_by_path();
  spans.reserve(aggregate.spans.size());
  for (const SpanAggregate& span : aggregate.spans) {
    json::Object row;
    row.emplace_back("path", json::Value::string(span.path));
    row.emplace_back("count", json::Value::integer(
                                  static_cast<std::int64_t>(span.count)));
    row.emplace_back("wall_ms", json::Value::number(span.wall_ns / 1e6));
    row.emplace_back("cpu_ms", json::Value::number(span.cpu_ns / 1e6));
    row.emplace_back(
        "alloc_bytes",
        json::Value::integer(static_cast<std::int64_t>(span.alloc_bytes)));
    row.emplace_back(
        "alloc_count",
        json::Value::integer(static_cast<std::int64_t>(span.alloc_count)));
    row.emplace_back("peak_rss_bytes",
                     json::Value::integer(
                         static_cast<std::int64_t>(span.peak_rss_bytes)));
    spans.push_back(json::Value::object(std::move(row)));
  }
  root.emplace_back("spans", json::Value::array(std::move(spans)));

  // Metrics snapshot.
  const MetricsSnapshot snapshot = Metrics::instance().snapshot();
  json::Object counters;
  for (const auto& [name, value] : snapshot.counters)
    counters.emplace_back(
        name, json::Value::integer(static_cast<std::int64_t>(value)));
  json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges)
    gauges.emplace_back(name, json::Value::number(value));
  json::Object histograms;
  for (const auto& [name, histogram] : snapshot.histograms) {
    json::Object entry;
    entry.emplace_back("count", json::Value::integer(static_cast<std::int64_t>(
                                    histogram.count)));
    entry.emplace_back("sum", json::Value::number(histogram.sum));
    entry.emplace_back("mean", json::Value::number(histogram.mean()));
    if (histogram.count > 0) {
      // Empty histograms hold the +/-inf identities, which JSON can't
      // encode; min/max are present iff count > 0.
      entry.emplace_back("min", json::Value::number(histogram.min));
      entry.emplace_back("max", json::Value::number(histogram.max));
    }
    histograms.emplace_back(name, json::Value::object(std::move(entry)));
  }
  json::Object metrics;
  metrics.emplace_back("counters", json::Value::object(std::move(counters)));
  metrics.emplace_back("gauges", json::Value::object(std::move(gauges)));
  metrics.emplace_back("histograms",
                       json::Value::object(std::move(histograms)));
  root.emplace_back("metrics", json::Value::object(std::move(metrics)));

  // Telemetry: the whole-run latency quantiles plus the exporter's frame
  // count. Additive to schema 1 — present only when a quantile histogram
  // recorded something or the exporter ran.
  const TelemetryExporter& exporter = TelemetryExporter::instance();
  if (!snapshot.quantiles.empty() || exporter.frames_written() > 0) {
    json::Object telemetry;
    telemetry.emplace_back("frames_written",
                           json::Value::integer(static_cast<std::int64_t>(
                               exporter.frames_written())));
    json::Object quantiles;
    for (const auto& [name, quantile] : snapshot.quantiles)
      quantiles.emplace_back(name, quantile_summary(quantile));
    telemetry.emplace_back("quantiles",
                           json::Value::object(std::move(quantiles)));
    root.emplace_back("telemetry", json::Value::object(std::move(telemetry)));
  }

  // Estimator diagnostics (SNTRUST_DIAG). Additive to schema 1 — present
  // only when something was recorded.
  const DiagRegistry& diag = DiagRegistry::instance();
  if (!diag.empty()) root.emplace_back("diag", diag.build());

  return json::Value::object(std::move(root));
}

void RunReporter::write(std::ostream& out) const {
  build().write(out);
  out << '\n';
}

void RunReporter::write_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out)
    throw std::runtime_error("RunReporter: cannot open report output " + path);
  write(out);
  if (!out)
    throw std::runtime_error("RunReporter: report write failed " + path);
}

void RunReporter::export_now() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    path = std::exchange(export_path_, std::string{});
  }
  if (!path.empty()) write_file(path);
}

}  // namespace sntrust::obs
