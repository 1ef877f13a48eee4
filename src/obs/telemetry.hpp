// Live telemetry export: a background thread that periodically snapshots
// the metrics registry (counters, gauges, quantile histograms) plus the
// getrusage/alloc resource samplers, and streams the result while the
// process is still running — the counterpart to the end-of-run report in
// run_report.hpp.
//
// One sink, armed with SNTRUST_TELEMETRY=path[:period_ms] (or --telemetry
// on the CLI) through exec::apply: one JSONL frame object appended per
// period. Frame schema
// (version 2, times in milliseconds):
//   {"schema_version": 2, "seq": N, "t_ms": T, "tool": "...",
//    "totals":   {"user_cpu_ms", "system_cpu_ms", "peak_rss_bytes",
//                 "alloc_bytes", "alloc_count"},
//    "counters": {name: value},
//    "gauges":   {name: value},
//    "quantiles": {name: {"count", "p50", "p90", "p99", "p999",
//                         "min", "max"}}}          // cumulative
// Quantile entries omit p*/min/max when count == 0 (NaN/inf have no JSON
// encoding). Version 1 frames also carried a "windows" section of
// sliding-window quantiles. A sweep's `sweep.<kind>.source_ms` count is its
// completed-source progress. Frames are flushed after every append, so a
// killed process loses at most a partial final line;
// `read_telemetry_frames` tolerates exactly that truncated tail. A frame
// the stream fails to take is reported on stderr and not counted; `seq`
// still advances, so a reader sees the gap.
//
// Lifecycle: `start` spawns the exporter thread and writes frame 0
// immediately; `stop` writes a final frame and joins — so any armed run
// emits at least two frames. exec::apply starts the exporter after it has
// created the RunReporter, so the exporter's atexit stop runs before the
// report hook and the final frame (and the frame count the report embeds)
// land before the report is written.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace sntrust::obs {

inline constexpr std::int64_t kTelemetrySchemaVersion = 2;
inline constexpr std::uint64_t kTelemetryDefaultPeriodMs = 1000;
/// Longest period: 10^12 ms, like the deadline, keeps the exporter's wait
/// within the steady clock's range.
inline constexpr std::uint64_t kTelemetryMaxPeriodMs = 1'000'000'000'000;

struct QuantileSnapshot;  // obs/quantile.hpp

struct TelemetryOptions {
  std::string jsonl_path;  ///< empty = telemetry disabled
  std::uint64_t period_ms = kTelemetryDefaultPeriodMs;

  bool enabled() const { return !jsonl_path.empty(); }
  bool operator==(const TelemetryOptions&) const = default;
};

/// Parses one "path" or "path:period_ms" JSONL spec. Paths may contain
/// colons: the text after the last colon is the period when it holds no
/// '/' and is empty or starts with a digit, and then it must be a whole
/// number, read with parse_count in [0, kTelemetryMaxPeriodMs], 0 meaning 1.
/// So "t.jsonl:5s" is a malformed period and "run:1/t.jsonl" a path. nullopt
/// for a malformed period or an empty path. Shared by SNTRUST_TELEMETRY and
/// the CLI --telemetry flag (exec/run_config.hpp).
std::optional<TelemetryOptions> parse_telemetry_spec(std::string_view spec);

/// The quantile summary frames and the run report share: {"count", "p50",
/// "p90", "p99", "p999", "min", "max"}, with the value fields present iff
/// count > 0 (NaN/inf have no JSON encoding).
json::Value quantile_summary(const QuantileSnapshot& snap);

/// Background exporter; one per process, intentionally leaked like the
/// other obs singletons so atexit hooks can reach it.
class TelemetryExporter {
 public:
  static TelemetryExporter& instance();

  /// Starts the exporter thread (no-op when options.enabled() is false or
  /// already running). Writes frame 0 synchronously before returning and
  /// registers an atexit stop so the final frame is never lost on a clean
  /// exit.
  void start(TelemetryOptions options);

  /// Writes one frame to the stream right now (used by tests and by
  /// stop()). Throws std::runtime_error when the stream fails to take it;
  /// that frame is not counted. A no-op while the exporter is stopped.
  void flush();

  /// Writes a final frame, stops and joins the thread. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint64_t frames_written() const {
    return frames_written_.load(std::memory_order_relaxed);
  }

  /// Assembles one frame from the live registry state (exposed for tests;
  /// `seq` is what the next frame would carry).
  json::Value build_frame() const;

 private:
  TelemetryExporter() = default;
  void run();
  void write_frame_locked();  ///< requires io_mutex_
  /// Writes a frame and reports a failure on stderr instead of throwing:
  /// a telemetry sink must never take the workload down.
  void write_frame_reporting();

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> frames_written_{0};
  std::atomic<std::uint64_t> seq_{0};

  std::mutex state_mutex_;  ///< guards options_/thread_ transitions
  TelemetryOptions options_;
  std::thread thread_;

  std::mutex io_mutex_;  ///< serializes frame writes (thread vs flush/stop)
  std::ofstream jsonl_out_;

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
};

/// Frames parsed back from a JSONL telemetry file with the strict util/json
/// parser. A final line that does not parse (the process was killed mid-
/// append) is dropped and reported via `truncated_tail`; a malformed line
/// anywhere else throws.
struct TelemetryFrames {
  std::vector<json::Value> frames;
  bool truncated_tail = false;
  // How many lines were dropped as unparsable (0 or 1 today — only the tail
  // may be damaged). Counted separately so consumers that diff telemetry
  // streams (sntrust_benchdiff) can surface the loss instead of silently
  // comparing fewer frames.
  std::uint64_t truncated_frames = 0;
};
TelemetryFrames read_telemetry_frames(const std::string& path);

}  // namespace sntrust::obs
