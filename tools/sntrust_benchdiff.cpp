// sntrust_benchdiff: regression gate over the JSON run reports the obs
// layer emits (SNTRUST_REPORT / --report; schema in obs/run_report.hpp).
//
//   sntrust_benchdiff [options] <baseline.json> <candidate.json>
//       Aligns the two reports by span path, prints a regression table
//       (regressions first), and exits 1 when any span, total, quantile, or
//       estimate-quality gate breaches — CI wires this between a committed
//       baseline and the fresh run, humans point it at any two reports.
//       When both reports carry build/run provenance and their graph
//       fingerprints or scale disagree, the diff refuses (exit 2) instead
//       of comparing apples to oranges.
//   sntrust_benchdiff --summary <report.json|telemetry.jsonl>...
//       Prints a Markdown summary table across the given reports — CI
//       appends it to $GITHUB_STEP_SUMMARY; scripts/run_all.sh ends with
//       it. Telemetry .jsonl streams are listed with their frame counts,
//       including how many trailing frames were lost to truncation.
//
// Options:
//   --threshold-pct <p>       per-span wall regression gate (default 25)
//   --warn-only               print the table but always exit 0
// The other gates are fixed (report/run_compare.hpp). A threshold that is
// not a whole decimal string >= 0 is a usage error (exit 2).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "report/run_compare.hpp"
#include "util/env.hpp"
#include "util/format.hpp"

namespace {

using namespace sntrust;

int usage() {
  std::cerr
      << "usage:\n"
         "  sntrust_benchdiff [options] <baseline.json> <candidate.json>\n"
         "  sntrust_benchdiff --summary <report.json|telemetry.jsonl>...\n"
         "options:\n"
         "  --threshold-pct <p>  span wall regression gate (default 25)\n"
         "  --warn-only          report regressions but exit 0\n";
  return 2;
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Markdown summary: one table row per run report, a totals row, then one
// bullet per telemetry stream. Plain enough to read in a terminal, renders
// as a table when CI appends it to $GITHUB_STEP_SUMMARY.
int cmd_summary(const std::vector<std::string>& paths) {
  struct TelemetryLine {
    std::string path;
    std::size_t frames;
    std::uint64_t truncated;
  };
  std::vector<TelemetryLine> streams;

  std::cout << "| report | tool | wall (s) | cpu (s) | peak rss (MB) |"
               " allocs | nonconverged |\n"
            << "|---|---|---:|---:|---:|---:|---:|\n";
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double peak_rss = 0.0;
  double alloc_bytes = 0.0;
  std::uint64_t alloc_count = 0;
  std::size_t reports = 0;
  for (const std::string& path : paths) {
    if (ends_with(path, ".jsonl")) {
      const obs::TelemetryFrames frames = obs::read_telemetry_frames(path);
      streams.push_back(
          TelemetryLine{path, frames.frames.size(), frames.truncated_frames});
      continue;
    }
    const RunReportData report = load_run_report(path);
    ++reports;
    auto total = [&report](const char* key) {
      const auto found = report.totals.find(key);
      return found == report.totals.end() ? 0.0 : found->second;
    };
    wall_ms += total("wall_ms");
    cpu_ms += total("cpu_ms");
    peak_rss = std::max(peak_rss, total("peak_rss_bytes"));
    alloc_bytes += total("alloc_bytes");
    alloc_count += static_cast<std::uint64_t>(total("alloc_count"));
    std::cout << "| " << path << " | " << report.tool << " | "
              << fixed(total("wall_ms") / 1000.0, 1) << " | "
              << fixed(total("cpu_ms") / 1000.0, 1) << " | "
              << fixed(total("peak_rss_bytes") / (1024.0 * 1024.0), 1)
              << " | "
              << with_thousands(
                     static_cast<std::uint64_t>(total("alloc_count")))
              << " | "
              << (report.has_diag ? std::to_string(report.diag_nonconverged)
                                  : std::string{"-"})
              << " |\n";
  }
  std::cout << "| **total** (" << reports << " report"
            << (reports == 1 ? "" : "s") << ") | | "
            << fixed(wall_ms / 1000.0, 1) << " | " << fixed(cpu_ms / 1000.0, 1)
            << " | " << fixed(peak_rss / (1024.0 * 1024.0), 1) << " | "
            << with_thousands(alloc_count) << " | |\n";
  for (const TelemetryLine& stream : streams) {
    std::cout << "\n- `" << stream.path << "`: " << stream.frames
              << " telemetry frame" << (stream.frames == 1 ? "" : "s");
    if (stream.truncated > 0)
      std::cout << " (" << stream.truncated << " truncated frame"
                << (stream.truncated == 1 ? "" : "s") << " dropped)";
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    DiffOptions options;
    bool warn_only = false;
    bool summary = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threshold-pct") {
        if (i + 1 >= argc) return usage();
        const auto value = parse_nonnegative(argv[++i]);
        if (!value) return usage();
        options.span_threshold_pct = *value;
      } else if (arg == "--warn-only") {
        warn_only = true;
      } else if (arg == "--summary") {
        summary = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      } else {
        paths.push_back(arg);
      }
    }

    if (summary) {
      if (paths.empty()) return usage();
      return cmd_summary(paths);
    }
    if (paths.size() != 2) return usage();

    const RunReportData baseline = load_run_report(paths[0]);
    const RunReportData candidate = load_run_report(paths[1]);
    if (const std::string mismatch = provenance_mismatch(baseline, candidate);
        !mismatch.empty()) {
      std::cerr << "error: refusing to diff: " << mismatch << "\n";
      return 2;
    }
    std::cout << "baseline:  " << paths[0] << " (" << baseline.tool << ")\n"
              << "candidate: " << paths[1] << " (" << candidate.tool
              << ")\n\n";
    const DiffResult result = diff_run_reports(baseline, candidate, options);
    diff_table(result).print(std::cout);
    if (result.breached) {
      std::cout << (warn_only
                        ? "\nregression thresholds breached (warn-only)\n"
                        : "\nregression thresholds breached\n");
      return warn_only ? 0 : 1;
    }
    std::cout << "\nno regressions past thresholds\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
