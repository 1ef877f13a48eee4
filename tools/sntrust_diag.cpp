// sntrust_diag: renders the estimator-diagnostics ("diag") section of a
// run report — the statistical-quality counterpart to sntrust_benchdiff's
// timing diffs. Diffing two reports' estimate quality is sntrust_benchdiff's
// job: its quality rows gate CI95 widths and new non-converged sources.
//
//   sntrust_diag [options] <report.json>
//       Renders the diag section: convergence verdict, flagged (cap-exit)
//       sources, per-estimate CI95 columns, and per-kind decay-curve
//       tables (iterations, fitted decay rate, plateau onset, final value,
//       plus a thinned trajectory for each trace). Exits 1 when any source
//       is flagged as non-converged — CI runs this against the reference
//       dataset to assert every estimate converged.
//
// Options:
//   --trace-points <n>   trajectory samples rendered per trace (default 8,
//                        a whole decimal number >= 2)
//   --warn-only          report but always exit 0
//
// Exit codes: 0 ok, 1 flagged sources, 2 usage or read error (same
// taxonomy as sntrust_benchdiff).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "report/run_compare.hpp"
#include "report/table.hpp"
#include "util/env.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace {

using namespace sntrust;

int usage() {
  std::cerr << "usage:\n"
               "  sntrust_diag [options] <report.json>\n"
               "options:\n"
               "  --trace-points <n>   trajectory samples per trace "
               "(default 8, at least 2)\n"
               "  --warn-only          report but always exit 0\n"
               "(diff two reports' estimate quality with "
               "sntrust_benchdiff)\n";
  return 2;
}

json::Value load_document(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return json::Value::parse(buffer.str());
}

double number_or(const json::Value* value, double fallback) {
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

// Renders one trace's (iteration, value) trajectory as "t:v" pairs, evenly
// subsampled down to `max_points` so wide tables stay readable. The first
// and final samples always survive the subsample.
std::string render_points(const json::Value& points, std::size_t max_points) {
  if (!points.is_array() || points.as_array().empty()) return "-";
  const json::Array& rows = points.as_array();
  std::vector<std::size_t> keep;
  if (rows.size() <= max_points) {
    for (std::size_t i = 0; i < rows.size(); ++i) keep.push_back(i);
  } else {
    for (std::size_t i = 0; i < max_points; ++i)
      keep.push_back(i * (rows.size() - 1) / (max_points - 1));
  }
  std::string out;
  for (const std::size_t i : keep) {
    const json::Value& pair = rows[i];
    if (!pair.is_array() || pair.as_array().size() != 2) continue;
    if (!out.empty()) out += "  ";
    out += std::to_string(pair.as_array()[0].as_int()) + ":" +
           compact(pair.as_array()[1].as_number(), 3);
  }
  return out.empty() ? "-" : out;
}

int cmd_render(const std::string& path, std::size_t trace_points,
               bool warn_only) {
  const json::Value document = load_document(path);
  const RunReportData report = parse_run_report(document);
  std::cout << "report: " << path << " (" << report.tool << ")\n";
  if (!report.has_diag) {
    std::cout << "no diag section — run with SNTRUST_DIAG=1 (or --diag) to "
                 "record estimator diagnostics\n";
    return 0;
  }
  const json::Value* diag = document.find("diag");
  std::cout << "converged: " << (report.diag_converged ? "yes" : "NO")
            << "   nonconverged sources: " << report.diag_nonconverged
            << "   epsilon: " << compact(number_or(diag->find("epsilon"), 0.0))
            << "\n\n";

  if (!report.flagged_sources.empty()) {
    Table flagged{{"kind", "source", "iterations", "final value"}};
    for (const RunReportData::FlaggedSource& source : report.flagged_sources)
      flagged.add_row({source.kind, std::to_string(source.source),
                       std::to_string(source.iterations),
                       compact(source.final_value)});
    std::cout << "flagged (exited on iteration cap, not tolerance):\n";
    flagged.print(std::cout);
    std::cout << "\n";
  }

  if (!report.estimates.empty()) {
    Table estimates{{"estimate", "mean", "ci95 lo", "ci95 hi", "ci95 width",
                     "n", "ess"}};
    for (const auto& [name, row] : report.estimates)
      estimates.add_row({name, compact(row.mean), compact(row.ci95_lo),
                         compact(row.ci95_hi), compact(row.ci95_width),
                         std::to_string(row.n), compact(row.ess)});
    std::cout << "estimates:\n";
    estimates.print(std::cout);
    std::cout << "\n";
  }

  if (const json::Value* traces = diag->find("traces");
      traces != nullptr && traces->is_object()) {
    for (const json::Member& group : traces->as_object()) {
      if (!group.second.is_array()) continue;
      Table table{{"source", "iterations", "converged", "decay rate",
                   "plateau@", "final value", "trajectory (iter:value)"}};
      for (const json::Value& trace : group.second.as_array()) {
        if (!trace.is_object()) continue;
        const json::Value* converged = trace.find("converged");
        const json::Value* points = trace.find("points");
        table.add_row(
            {std::to_string(static_cast<std::int64_t>(
                 number_or(trace.find("source"), 0.0))),
             std::to_string(static_cast<std::int64_t>(
                 number_or(trace.find("iterations"), 0.0))),
             converged != nullptr && converged->is_bool() &&
                     !converged->as_bool()
                 ? "NO"
                 : "yes",
             compact(number_or(trace.find("decay_rate"), 0.0)),
             std::to_string(static_cast<std::int64_t>(
                 number_or(trace.find("plateau_iteration"), 0.0))),
             compact(number_or(trace.find("final_value"), 0.0)),
             points != nullptr ? render_points(*points, trace_points) : "-"});
      }
      std::cout << "decay curves: " << group.first << "\n";
      table.print(std::cout);
      std::cout << "\n";
    }
    if (const json::Value* dropped = diag->find("dropped_traces");
        dropped != nullptr)
      std::cout << "(" << dropped->as_int()
                << " traces dropped past the per-kind cap)\n\n";
  }

  if (report.diag_nonconverged > 0) {
    std::cout << (warn_only ? "non-converged estimates present (warn-only)\n"
                            : "non-converged estimates present\n");
    return warn_only ? 0 : 1;
  }
  std::cout << "all estimates converged\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool warn_only = false;
    std::size_t trace_points = 8;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace-points") {
        if (i + 1 >= argc) return usage();
        const auto points = parse_count(
            argv[++i], 2, std::numeric_limits<std::uint32_t>::max());
        if (!points) return usage();
        trace_points = static_cast<std::size_t>(*points);
      } else if (arg == "--warn-only") {
        warn_only = true;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "unknown flag: " << arg << "\n";
        return usage();
      } else {
        paths.push_back(arg);
      }
    }
    if (paths.size() != 1) return usage();
    return cmd_render(paths[0], trace_points, warn_only);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
