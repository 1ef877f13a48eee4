// Hierarchical tracing for the measurement pipeline: RAII `Span`s record
// steady-clock timed events into a process-wide `Tracer`, forming a trace
// tree that exports as Chrome `trace_event` JSON (load into
// chrome://tracing or Perfetto) or as a flat per-path timing table routed
// through the `report/` sinks.
//
// Tracing is off by default; a disabled Span costs one relaxed atomic load.
// Enable programmatically (`Tracer::instance().enable()`), or with
// `SNTRUST_TRACE=<path>` / `sntrust_cli --trace <path>`: exec::apply then
// sets the export path, whose atexit hook dumps the trace when any binary
// (benches included) exits.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/resource.hpp"
#include "report/table.hpp"

namespace sntrust::obs {

/// One completed (or still-open) span. Events are stored in begin order, so
/// `parent` indices always point backwards; `depth` 0 means a root span.
///
/// Resource fields are process-wide deltas between span begin and end
/// (see obs/resource.hpp): nested or concurrent spans each observe the full
/// process consumption over their window, so attribution is exact for the
/// single-stack measurement loops and an upper bound under the thread pool.
/// They are zero while the span is open; alloc fields are zero unless
/// allocation counting is enabled (SNTRUST_ALLOC_STATS).
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint32_t depth = 0;
  std::int64_t parent = -1;       ///< index into Tracer::events(), -1 = root
  std::uint64_t start_ns = 0;     ///< steady-clock offset from tracer epoch
  std::uint64_t duration_ns = 0;  ///< 0 while the span is still open
  bool closed = false;
  std::uint64_t cpu_ns = 0;          ///< user+system CPU over the span
  std::uint64_t alloc_bytes = 0;     ///< bytes newed during the span
  std::uint64_t alloc_count = 0;     ///< operator new calls during the span
  std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS at span close
};

/// Per-path aggregation of the trace (paths are "a/b/c" joins of the span
/// stack), including the resource columns; the input to both the printed
/// timing table and the run report.
struct SpanAggregate {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< max over the path's spans
};

struct TraceAggregate {
  std::vector<SpanAggregate> spans;  ///< in first-seen order
  std::uint64_t root_wall_ns = 0;    ///< total wall of depth-0 spans
};

/// Monotonic wall-clock scope timer (steady_clock); the one timing primitive
/// both the library spans and the bench banner use.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  double elapsed_ms() const { return elapsed_ns() / 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Process-wide trace collector. Mutex-guarded; spans may be recorded from
/// any thread (span nesting is tracked per process, matching the repo's
/// single-threaded measurement loops).
class Tracer {
 public:
  static Tracer& instance();

  void enable();
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all events and the open-span stack; re-arms the epoch. Tests use
  /// this to get deterministic tree shapes.
  void reset();

  /// Path the trace is written to at process exit (SNTRUST_TRACE). The
  /// first non-empty path registers the atexit export; empty disables it.
  void set_export_path(std::string path);
  std::string export_path() const;

  /// Snapshot of all events in begin order (open spans have closed=false and
  /// a duration up to "now").
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ("traceEvents" array of complete "X" events,
  /// microsecond timestamps).
  void write_chrome_trace(std::ostream& out) const;
  void write_chrome_trace_file(const std::string& path) const;

  /// Flat per-path aggregation ("a/b/c" join of the span stack): count,
  /// total/mean wall-clock, share of the root total, and the CPU/alloc
  /// resource columns, ready for Table::print.
  Table timing_table() const;

  /// The aggregation behind timing_table(), in structured form for the run
  /// report and the benchdiff alignment.
  TraceAggregate aggregate_by_path() const;

 private:
  friend class Span;
  Tracer();

  /// Returns the event index, or -1 when disabled.
  std::int64_t begin_span(std::string name, std::string category);
  void end_span(std::int64_t token);

  std::uint64_t now_ns_locked() const;

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::vector<ResourceUsage> span_starts_;  ///< begin sample, index-aligned
  std::vector<std::int64_t> open_stack_;
  std::string export_path_;
  bool exit_hook_armed_ = false;
};

/// RAII scoped span. Construction/destruction cost one atomic load when the
/// tracer is disabled.
class Span {
 public:
  explicit Span(std::string name, std::string category = "measure");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t token_ = -1;
};

}  // namespace sntrust::obs
