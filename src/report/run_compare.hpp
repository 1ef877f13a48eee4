// Run-report comparison: loads the JSON artifacts RunReporter emits, aligns
// two runs by span path / metric name, and classifies each aligned row
// against regression thresholds. The core of
// tools/sntrust_benchdiff, kept in the library so the gating logic is unit
// tested and reusable (CI smoke gates, scripted sweeps).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report/table.hpp"
#include "util/json.hpp"

namespace sntrust {

/// Parsed form of one run-report JSON (schema version 1; see
/// obs/run_report.hpp for the schema).
struct RunReportData {
  std::int64_t schema_version = 0;
  std::string tool;

  /// Provenance from the "config" section: every string-valued config entry
  /// (compiler, build_flags, graph fingerprints, path knobs) plus "scale".
  /// provenance_mismatch compares the graph.* entries and the scale.
  /// Reports written before provenance existed simply have an empty map and
  /// compare as compatible.
  std::map<std::string, std::string> provenance;
  bool has_scale = false;
  double scale = 0.0;

  std::map<std::string, double> totals;  ///< wall_ms, cpu_ms, peak_rss_bytes...

  struct SpanRow {
    std::string path;
    std::uint64_t count = 0;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t alloc_count = 0;
  };
  std::vector<SpanRow> spans;  ///< in report order

  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;

  /// One latency-quantile summary from the report's "telemetry" section.
  /// `has_values` is false for an empty histogram (count == 0 omits the
  /// value fields — the empty-histogram contract).
  struct QuantileRow {
    std::uint64_t count = 0;
    bool has_values = false;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, QuantileRow> quantiles;
  std::int64_t telemetry_frames = 0;  ///< telemetry.frames_written (0 if none)

  /// One estimate from the "diag" section, with its CI95.
  struct EstimateRow {
    double mean = 0.0;
    double ci95_lo = 0.0;
    double ci95_hi = 0.0;
    double ci95_width = 0.0;
    std::uint64_t n = 0;
    double ess = 0.0;
  };
  /// One flagged (cap-exit) source from the "diag" section.
  struct FlaggedSource {
    std::string kind;
    std::uint64_t source = 0;
    std::uint64_t iterations = 0;
    double final_value = 0.0;
  };
  /// Estimator diagnostics (SNTRUST_DIAG runs only; `has_diag` is false when
  /// the report carries no "diag" section, and quality gates then no-op).
  bool has_diag = false;
  bool diag_converged = true;
  std::int64_t diag_nonconverged = 0;
  std::vector<FlaggedSource> flagged_sources;
  std::map<std::string, EstimateRow> estimates;
};

/// Parses an in-memory report document; throws std::runtime_error on a
/// missing/mismatched schema_version or malformed sections.
RunReportData parse_run_report(const json::Value& document);

/// Reads and parses a report file; throws on I/O or parse errors.
RunReportData load_run_report(const std::string& path);

struct DiffOptions {
  double span_threshold_pct = 25.0;  ///< wall regression gate per span
};

struct DiffRow {
  enum class Status { Ok, Regressed, Improved, Added, Removed };
  std::string name;
  double baseline = 0.0;
  double candidate = 0.0;
  double delta_pct = 0.0;  ///< (candidate - baseline) / baseline * 100
  Status status = Status::Ok;
  std::string metric;  ///< which quantity was gated ("wall_ms", ...)
};

struct DiffResult {
  std::vector<DiffRow> spans;
  std::vector<DiffRow> totals;
  std::vector<DiffRow> quantiles;  ///< telemetry p50/p99 rows per histogram
  std::vector<DiffRow> quality;    ///< diag CI widths + nonconverged count
  bool breached = false;  ///< any Regressed row past its threshold
};

const char* to_string(DiffRow::Status status);

/// Checks whether two reports measured the same thing: graph fingerprints
/// (config keys starting with "graph.") and the workload scale must match
/// when both sides recorded them — the thread count and other knobs are
/// allowed to differ (comparing those is the whole point of a perf diff).
/// Returns an empty string when compatible, otherwise a human-readable
/// explanation of the first mismatch. Reports without provenance
/// (pre-provenance baselines) always compare as compatible.
std::string provenance_mismatch(const RunReportData& baseline,
                                const RunReportData& candidate);

/// Aligns spans by path and totals by key, classifying each row. A span
/// breaches when its candidate wall exceeds baseline by more than
/// span_threshold_pct and either side clears 5 ms. Totals gate wall_ms at
/// 15% and peak_rss_bytes at 50%; cpu_ms is listed, never gated. Telemetry
/// p50/p99 gate at 40% above a 1 ms floor. When both reports carry a diag
/// section, any new cap-exit source breaches, as does an estimate whose
/// CI95 width grows by more than 50%. Added/Removed spans never breach (new
/// phases are a code change, not a regression) but are listed for the
/// reader.
DiffResult diff_run_reports(const RunReportData& baseline,
                            const RunReportData& candidate,
                            const DiffOptions& options);

/// Renders the diff as a printable table (regressions first).
Table diff_table(const DiffResult& result);

}  // namespace sntrust
