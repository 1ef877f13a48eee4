#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "util/parse.hpp"

#ifdef __GLIBC__
#include <errno.h>  // program_invocation_short_name
#endif

namespace sntrust::obs {

namespace {

std::string tool_name() {
#ifdef __GLIBC__
  if (program_invocation_short_name != nullptr)
    return program_invocation_short_name;
#endif
  return "unknown";
}

/// Milliseconds on the steady clock since the first call: the frames'
/// t_ms time base.
std::uint64_t now_ms() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

}  // namespace

json::Value quantile_summary(const QuantileSnapshot& snap) {
  json::Object entry;
  entry.emplace_back(
      "count", json::Value::integer(static_cast<std::int64_t>(snap.count)));
  if (snap.count > 0) {
    entry.emplace_back("p50", json::Value::number(snap.value_at_quantile(0.5)));
    entry.emplace_back("p90", json::Value::number(snap.value_at_quantile(0.9)));
    entry.emplace_back("p99",
                       json::Value::number(snap.value_at_quantile(0.99)));
    entry.emplace_back("p999",
                       json::Value::number(snap.value_at_quantile(0.999)));
    entry.emplace_back("min", json::Value::number(snap.min));
    entry.emplace_back("max", json::Value::number(snap.max));
  }
  return json::Value::object(std::move(entry));
}

std::optional<TelemetryOptions> parse_telemetry_spec(std::string_view spec) {
  TelemetryOptions options;
  options.jsonl_path = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view suffix = spec.substr(colon + 1);
    const bool period =
        suffix.find('/') == std::string_view::npos &&
        (suffix.empty() || (suffix[0] >= '0' && suffix[0] <= '9'));
    if (period) {
      const auto ms = parse_count(suffix, 0, kTelemetryMaxPeriodMs);
      if (!ms) return std::nullopt;
      options.jsonl_path = spec.substr(0, colon);
      options.period_ms = std::max<std::uint64_t>(1, *ms);  // 0 would spin
    }
  }
  if (options.jsonl_path.empty()) return std::nullopt;
  return options;
}

TelemetryExporter& TelemetryExporter::instance() {
  // Intentionally leaked, like the Tracer and Metrics: the atexit stop hook
  // must find the exporter alive at process exit.
  static TelemetryExporter* exporter = new TelemetryExporter();
  return *exporter;
}

void TelemetryExporter::start(TelemetryOptions options) {
  if (!options.enabled()) return;
  std::lock_guard<std::mutex> state_lock(state_mutex_);
  if (running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> io_lock(io_mutex_);
    options_ = std::move(options);
    jsonl_out_.open(options_.jsonl_path, std::ios::app);
    if (!jsonl_out_)
      throw std::runtime_error("telemetry: cannot open JSONL sink " +
                               options_.jsonl_path);
  }
  write_frame_reporting();  // frame 0: the run is observable immediately
  {
    std::lock_guard<std::mutex> wake_lock(wake_mutex_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  // Registered after the RunReporter's report hook, so at exit the final
  // frame (and frame count) land before the report is assembled.
  static bool atexit_armed = false;
  if (!atexit_armed) {
    atexit_armed = true;
    std::atexit([] { TelemetryExporter::instance().stop(); });
  }
}

void TelemetryExporter::run() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  const auto period = std::chrono::milliseconds(options_.period_ms);
  while (!stop_requested_) {
    if (wake_.wait_for(lock, period, [this] { return stop_requested_; }))
      break;
    lock.unlock();
    write_frame_reporting();
    lock.lock();
  }
}

void TelemetryExporter::flush() {
  std::lock_guard<std::mutex> io_lock(io_mutex_);
  if (jsonl_out_.is_open()) write_frame_locked();
}

void TelemetryExporter::write_frame_locked() {
  seq_.fetch_add(1, std::memory_order_relaxed);
  build_frame().write(jsonl_out_);
  jsonl_out_ << '\n';
  jsonl_out_.flush();
  if (!jsonl_out_) {
    jsonl_out_.clear();  // the next frame tries again
    throw std::runtime_error("telemetry: write failed " + options_.jsonl_path);
  }
  frames_written_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryExporter::write_frame_reporting() {
  try {
    flush();
  } catch (const std::exception& error) {
    std::fputs((std::string(error.what()) + "\n").c_str(), stderr);
  }
}

void TelemetryExporter::stop() {
  std::thread joining;
  {
    std::lock_guard<std::mutex> state_lock(state_mutex_);
    if (!running_.load(std::memory_order_acquire)) return;
    {
      std::lock_guard<std::mutex> wake_lock(wake_mutex_);
      stop_requested_ = true;
    }
    wake_.notify_all();
    joining = std::move(thread_);
  }
  if (joining.joinable()) joining.join();
  write_frame_reporting();  // final frame: the closing state of the run
  {
    std::lock_guard<std::mutex> io_lock(io_mutex_);
    if (jsonl_out_.is_open()) jsonl_out_.close();
  }
  running_.store(false, std::memory_order_release);
}

json::Value TelemetryExporter::build_frame() const {
  json::Object root;
  root.emplace_back("schema_version",
                    json::Value::integer(kTelemetrySchemaVersion));
  root.emplace_back("seq", json::Value::integer(static_cast<std::int64_t>(
                               seq_.load(std::memory_order_relaxed))));
  root.emplace_back("t_ms", json::Value::integer(
                                static_cast<std::int64_t>(now_ms())));
  root.emplace_back("tool", json::Value::string(tool_name()));

  const ResourceUsage usage = resource_usage_now();
  json::Object totals;
  totals.emplace_back("user_cpu_ms",
                      json::Value::number(usage.user_cpu_ns / 1e6));
  totals.emplace_back("system_cpu_ms",
                      json::Value::number(usage.system_cpu_ns / 1e6));
  totals.emplace_back(
      "peak_rss_bytes",
      json::Value::integer(static_cast<std::int64_t>(usage.peak_rss_bytes)));
  totals.emplace_back(
      "alloc_bytes",
      json::Value::integer(static_cast<std::int64_t>(usage.alloc_bytes)));
  totals.emplace_back(
      "alloc_count",
      json::Value::integer(static_cast<std::int64_t>(usage.alloc_count)));
  root.emplace_back("totals", json::Value::object(std::move(totals)));

  const MetricsSnapshot snapshot = Metrics::instance().snapshot();
  json::Object counters;
  for (const auto& [name, value] : snapshot.counters)
    counters.emplace_back(name,
                          json::Value::integer(static_cast<std::int64_t>(value)));
  root.emplace_back("counters", json::Value::object(std::move(counters)));
  json::Object gauges;
  for (const auto& [name, value] : snapshot.gauges)
    gauges.emplace_back(name, json::Value::number(value));
  root.emplace_back("gauges", json::Value::object(std::move(gauges)));
  json::Object quantiles;
  for (const auto& [name, snap] : snapshot.quantiles)
    quantiles.emplace_back(name, quantile_summary(snap));
  root.emplace_back("quantiles", json::Value::object(std::move(quantiles)));

  return json::Value::object(std::move(root));
}

TelemetryFrames read_telemetry_frames(const std::string& path) {
  std::ifstream in{path};
  if (!in)
    throw std::runtime_error("telemetry: cannot open " + path);
  TelemetryFrames out;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    try {
      out.frames.push_back(json::Value::parse(lines[i]));
    } catch (const std::exception&) {
      // Only the final line may be damaged (a kill mid-append); anything
      // earlier means the file is not a telemetry stream.
      if (i + 1 != lines.size())
        throw std::runtime_error("telemetry: malformed frame at line " +
                                 std::to_string(i + 1) + " of " + path);
      out.truncated_tail = true;
      ++out.truncated_frames;
    }
  }
  return out;
}

}  // namespace sntrust::obs
