// Unified JSON run reports: one schema-versioned artifact per process run
// combining the run configuration (threads, scale, seed, graph sizes, ...),
// the metrics snapshot, the per-span timing table with resource columns
// (wall/cpu/alloc/rss from obs/resource.hpp), and wall/CPU/peak-RSS totals.
//
// Arm with SNTRUST_REPORT=<path> or `sntrust_cli --report <path>`: exec::
// apply sets the export path, and exec::guarded_main writes the report when
// the run ends (export_now), or the exit hook at process exit.
// Arming the reporter also enables the tracer so the span table is
// populated. Reports from two
// runs diff with `tools/sntrust_benchdiff` (alignment by span path / metric
// name, threshold gating), which is what turns a perf PR into a measured,
// diffable claim.
//
// Schema (version 1, all times milliseconds unless suffixed otherwise):
//   {
//     "schema_version": 1,
//     "tool": "<binary name>",
//     "config":  {"compiler": "...", "build_flags": "...",
//                 ...set_config entries: exec::apply records every SNTRUST_*
//                 knob's effective value ("scale", "threads", ...), and
//                 each tool its own keys},
//     "totals":  {"wall_ms", "user_cpu_ms", "system_cpu_ms", "cpu_ms",
//                 "peak_rss_bytes", "alloc_bytes", "alloc_count",
//                 "free_count"},
//     "spans":   [{"path", "count", "wall_ms", "cpu_ms", "alloc_bytes",
//                  "alloc_count", "peak_rss_bytes"}, ...],
//     "metrics": {"counters": {name: value},
//                 "gauges":   {name: value},
//                 "histograms": {name: {"count", "sum", "mean"
//                                       [, "min", "max"]}}},
//     "telemetry": {"frames_written": N,          // additive: present only
//                   "quantiles": {name: {"count"  // when quantiles recorded
//                     [, "p50", "p90", "p99", "p999", "min", "max"]}}},
//     "exec": {"interrupted": "<reason>"}          // additive: present only
//   }                                              // when interrupted
// Histogram min/max (and quantile p*/min/max) are omitted when count == 0
// (the empty-histogram contract's infinities/NaN have no JSON encoding).
// CPU and RSS totals are process-cumulative; wall_ms counts from the
// reporter's creation (exec::apply at the start of main, i.e. effectively
// process start).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace sntrust::obs {

inline constexpr std::int64_t kRunReportSchemaVersion = 1;

/// Process-wide run-report collector. Construction (first `instance()`)
/// records the wall-clock baseline and registers the atexit export, which
/// writes the report once a path is set.
class RunReporter {
 public:
  static RunReporter& instance();

  /// Path the report is written to at process exit; empty disables the
  /// export. Setting a non-empty path enables the tracer.
  void set_export_path(std::string path);
  std::string export_path() const;

  /// Records one "config" entry (insertion-ordered, last write per key
  /// wins).
  void set_config(const std::string& key, std::string value);
  void set_config(const std::string& key, const char* value);
  void set_config(const std::string& key, double value);
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  void set_config(const std::string& key, T value) {
    set_config_value(key, json::Value::integer(static_cast<std::int64_t>(value)));
  }
  void set_config(const std::string& key, bool value);

  /// Marks the run as interrupted (signal/deadline); reported under
  /// "exec.interrupted". Additive to schema version 1 — the "exec" section
  /// only appears in an interrupted run's report. exec::interrupted_exit is
  /// the one caller.
  void set_interrupted(const std::string& reason);

  /// Assembles the report from the live tracer/metrics/resource state.
  json::Value build() const;

  void write(std::ostream& out) const;
  void write_file(const std::string& path) const;

  /// Writes the report to the export path, when one is set, and clears the
  /// path, so the exit hook writes nothing more. Throws std::runtime_error
  /// when the file cannot be written. exec::guarded_main calls it before it
  /// returns, so that failure sets the exit code (74); the exit hook covers
  /// a process that leaves any other way.
  void export_now();

 private:
  RunReporter();
  void set_config_value(const std::string& key, json::Value value);

  mutable std::mutex mutex_;
  std::string export_path_;
  std::vector<std::pair<std::string, json::Value>> config_;
  std::string interrupted_;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace sntrust::obs
