#include "report/run_compare.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace sntrust {

namespace {

double number_or(const json::Value* value, double fallback) {
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

}  // namespace

RunReportData parse_run_report(const json::Value& document) {
  RunReportData data;
  const json::Value* version = document.find("schema_version");
  if (version == nullptr || !version->is_number())
    throw std::runtime_error("run report: missing schema_version");
  data.schema_version = version->as_int();
  if (data.schema_version != 1)
    throw std::runtime_error("run report: unsupported schema_version " +
                             std::to_string(data.schema_version));

  if (const json::Value* tool = document.find("tool");
      tool != nullptr && tool->is_string())
    data.tool = tool->as_string();

  if (const json::Value* config = document.find("config");
      config != nullptr && config->is_object()) {
    for (const json::Member& member : config->as_object()) {
      if (member.second.is_string()) {
        data.provenance.emplace(member.first, member.second.as_string());
      } else if (member.first == "scale" && member.second.is_number()) {
        data.has_scale = true;
        data.scale = member.second.as_number();
      } else if (member.first == "env" && member.second.is_object()) {
        for (const json::Member& env : member.second.as_object())
          if (env.second.is_string())
            data.provenance.emplace("env." + env.first,
                                    env.second.as_string());
      }
    }
  }

  if (const json::Value* totals = document.find("totals");
      totals != nullptr && totals->is_object())
    for (const json::Member& member : totals->as_object())
      if (member.second.is_number())
        data.totals.emplace(member.first, member.second.as_number());

  if (const json::Value* spans = document.find("spans");
      spans != nullptr && spans->is_array()) {
    for (const json::Value& row : spans->as_array()) {
      const json::Value* path = row.find("path");
      if (path == nullptr || !path->is_string())
        throw std::runtime_error("run report: span row without a path");
      RunReportData::SpanRow span;
      span.path = path->as_string();
      span.count =
          static_cast<std::uint64_t>(number_or(row.find("count"), 0.0));
      span.wall_ms = number_or(row.find("wall_ms"), 0.0);
      span.cpu_ms = number_or(row.find("cpu_ms"), 0.0);
      span.alloc_bytes =
          static_cast<std::uint64_t>(number_or(row.find("alloc_bytes"), 0.0));
      span.alloc_count =
          static_cast<std::uint64_t>(number_or(row.find("alloc_count"), 0.0));
      data.spans.push_back(std::move(span));
    }
  }

  if (const json::Value* metrics = document.find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const json::Value* counters = metrics->find("counters");
        counters != nullptr && counters->is_object())
      for (const json::Member& member : counters->as_object())
        if (member.second.is_number())
          data.counters.emplace(member.first, member.second.as_number());
    if (const json::Value* gauges = metrics->find("gauges");
        gauges != nullptr && gauges->is_object())
      for (const json::Member& member : gauges->as_object())
        if (member.second.is_number())
          data.gauges.emplace(member.first, member.second.as_number());
  }

  if (const json::Value* telemetry = document.find("telemetry");
      telemetry != nullptr && telemetry->is_object()) {
    data.telemetry_frames =
        static_cast<std::int64_t>(number_or(telemetry->find("frames_written"),
                                            0.0));
    if (const json::Value* quantiles = telemetry->find("quantiles");
        quantiles != nullptr && quantiles->is_object()) {
      for (const json::Member& member : quantiles->as_object()) {
        if (!member.second.is_object()) continue;
        RunReportData::QuantileRow row;
        row.count = static_cast<std::uint64_t>(
            number_or(member.second.find("count"), 0.0));
        const json::Value* p50 = member.second.find("p50");
        row.has_values = p50 != nullptr;
        row.p50 = number_or(p50, 0.0);
        row.p90 = number_or(member.second.find("p90"), 0.0);
        row.p99 = number_or(member.second.find("p99"), 0.0);
        row.p999 = number_or(member.second.find("p999"), 0.0);
        row.min = number_or(member.second.find("min"), 0.0);
        row.max = number_or(member.second.find("max"), 0.0);
        data.quantiles.emplace(member.first, row);
      }
    }
  }

  if (const json::Value* diag = document.find("diag");
      diag != nullptr && diag->is_object()) {
    data.has_diag = true;
    if (const json::Value* converged = diag->find("converged");
        converged != nullptr && converged->is_bool())
      data.diag_converged = converged->as_bool();
    data.diag_nonconverged =
        static_cast<std::int64_t>(number_or(diag->find("nonconverged"), 0.0));
    if (const json::Value* flagged = diag->find("flagged_sources");
        flagged != nullptr && flagged->is_array()) {
      for (const json::Value& row : flagged->as_array()) {
        if (!row.is_object()) continue;
        RunReportData::FlaggedSource source;
        if (const json::Value* kind = row.find("kind");
            kind != nullptr && kind->is_string())
          source.kind = kind->as_string();
        source.source =
            static_cast<std::uint64_t>(number_or(row.find("source"), 0.0));
        source.iterations = static_cast<std::uint64_t>(
            number_or(row.find("iterations"), 0.0));
        source.final_value = number_or(row.find("final_value"), 0.0);
        data.flagged_sources.push_back(std::move(source));
      }
    }
    if (const json::Value* estimates = diag->find("estimates");
        estimates != nullptr && estimates->is_object()) {
      for (const json::Member& member : estimates->as_object()) {
        if (!member.second.is_object()) continue;
        RunReportData::EstimateRow row;
        row.mean = number_or(member.second.find("mean"), 0.0);
        row.ci95_lo = number_or(member.second.find("ci95_lo"), 0.0);
        row.ci95_hi = number_or(member.second.find("ci95_hi"), 0.0);
        row.ci95_width = number_or(member.second.find("ci95_width"), 0.0);
        row.n = static_cast<std::uint64_t>(
            number_or(member.second.find("n"), 0.0));
        row.ess = number_or(member.second.find("ess"), 0.0);
        data.estimates.emplace(member.first, row);
      }
    }
  }
  return data;
}

RunReportData load_run_report(const std::string& path) {
  std::ifstream in{path};
  if (!in)
    throw std::runtime_error("run report: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_run_report(json::Value::parse(buffer.str()));
  } catch (const std::exception& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

std::string provenance_mismatch(const RunReportData& baseline,
                                const RunReportData& candidate) {
  // Graph fingerprints: when both runs measured a graph under the same
  // config key, the fingerprints must agree — otherwise the diff compares
  // measurements of two different graphs.
  for (const auto& [key, base_value] : baseline.provenance) {
    if (key.rfind("graph.", 0) != 0) continue;
    const auto found = candidate.provenance.find(key);
    if (found == candidate.provenance.end()) continue;
    if (found->second != base_value)
      return "graph fingerprint mismatch for \"" + key + "\": baseline " +
             base_value + " vs candidate " + found->second +
             " — the runs measured different graphs";
  }
  if (baseline.has_scale && candidate.has_scale &&
      baseline.scale != candidate.scale)
    return "workload scale mismatch: baseline " +
           std::to_string(baseline.scale) + " vs candidate " +
           std::to_string(candidate.scale) +
           " — timings at different scales are not comparable";
  return {};
}

const char* to_string(DiffRow::Status status) {
  switch (status) {
    case DiffRow::Status::Ok: return "ok";
    case DiffRow::Status::Regressed: return "REGRESSED";
    case DiffRow::Status::Improved: return "improved";
    case DiffRow::Status::Added: return "added";
    case DiffRow::Status::Removed: return "removed";
  }
  return "?";
}

namespace {

// The fixed gates; only the per-span wall threshold is a DiffOptions
// field. Tail quantiles are noisier than span walls, so their gate is
// wider, and values under a floor in both runs are timer or float noise,
// not signal.
constexpr double kMinWallMs = 5.0;
constexpr double kTotalThresholdPct = 15.0;
constexpr double kRssThresholdPct = 50.0;
constexpr double kQuantileThresholdPct = 40.0;
constexpr double kMinQuantileMs = 1.0;
/// An estimate whose CI95 width grows past this got less certain, however
/// much faster the run.
constexpr double kCiWidenThresholdPct = 50.0;
constexpr double kMinCiWidth = 1e-9;

double delta_pct(double baseline, double candidate) {
  if (baseline <= 0.0)
    return candidate > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  return 100.0 * (candidate - baseline) / baseline;
}

/// Classifies one aligned quantity against a symmetric threshold.
DiffRow classify(std::string name, std::string metric, double baseline,
                 double candidate, double threshold_pct) {
  DiffRow row;
  row.name = std::move(name);
  row.metric = std::move(metric);
  row.baseline = baseline;
  row.candidate = candidate;
  row.delta_pct = delta_pct(baseline, candidate);
  if (row.delta_pct > threshold_pct)
    row.status = DiffRow::Status::Regressed;
  else if (row.delta_pct < -threshold_pct)
    row.status = DiffRow::Status::Improved;
  return row;
}

}  // namespace

DiffResult diff_run_reports(const RunReportData& baseline,
                            const RunReportData& candidate,
                            const DiffOptions& options) {
  DiffResult result;

  std::map<std::string, const RunReportData::SpanRow*> baseline_spans;
  for (const RunReportData::SpanRow& span : baseline.spans)
    baseline_spans.emplace(span.path, &span);

  for (const RunReportData::SpanRow& span : candidate.spans) {
    const auto found = baseline_spans.find(span.path);
    if (found == baseline_spans.end()) {
      DiffRow row;
      row.name = span.path;
      row.metric = "wall_ms";
      row.candidate = span.wall_ms;
      row.status = DiffRow::Status::Added;
      result.spans.push_back(std::move(row));
      continue;
    }
    const RunReportData::SpanRow& base = *found->second;
    baseline_spans.erase(found);
    // Spans tiny in both runs are timer noise, not signal.
    if (std::max(base.wall_ms, span.wall_ms) < kMinWallMs) continue;
    DiffRow wall = classify(span.path, "wall_ms", base.wall_ms, span.wall_ms,
                            options.span_threshold_pct);
    if (wall.status == DiffRow::Status::Regressed) result.breached = true;
    result.spans.push_back(std::move(wall));
  }
  for (const auto& [path, span] : baseline_spans) {
    DiffRow row;
    row.name = path;
    row.metric = "wall_ms";
    row.baseline = span->wall_ms;
    row.status = DiffRow::Status::Removed;
    result.spans.push_back(std::move(row));
  }

  // Totals: wall and peak RSS gate; cpu is context, since wall already
  // covers a slowdown.
  auto total_of = [](const RunReportData& report, const char* key) {
    const auto found = report.totals.find(key);
    return found == report.totals.end() ? 0.0 : found->second;
  };
  {
    DiffRow wall = classify("totals", "wall_ms", total_of(baseline, "wall_ms"),
                            total_of(candidate, "wall_ms"),
                            kTotalThresholdPct);
    if (wall.status == DiffRow::Status::Regressed) result.breached = true;
    result.totals.push_back(std::move(wall));
  }
  {
    DiffRow cpu = classify("totals", "cpu_ms", total_of(baseline, "cpu_ms"),
                           total_of(candidate, "cpu_ms"), kTotalThresholdPct);
    if (cpu.status == DiffRow::Status::Regressed)
      cpu.status = DiffRow::Status::Ok;  // informational
    result.totals.push_back(std::move(cpu));
  }
  {
    DiffRow rss = classify(
        "totals", "peak_rss_bytes", total_of(baseline, "peak_rss_bytes"),
        total_of(candidate, "peak_rss_bytes"), kRssThresholdPct);
    if (rss.status == DiffRow::Status::Regressed) result.breached = true;
    result.totals.push_back(std::move(rss));
  }

  // Telemetry quantiles: align by histogram name, gate p50 and p99 with the
  // same symmetric-threshold machinery as spans, with their own (wider)
  // threshold and noise floor. Added/Removed histograms are informational —
  // instrumenting a new code path is a code change, not a regression.
  for (const auto& [name, cand] : candidate.quantiles) {
    const auto found = baseline.quantiles.find(name);
    if (found == baseline.quantiles.end()) {
      DiffRow row;
      row.name = name;
      row.metric = "p50_ms";
      row.candidate = cand.p50;
      row.status = DiffRow::Status::Added;
      result.quantiles.push_back(std::move(row));
      continue;
    }
    const RunReportData::QuantileRow& base = found->second;
    if (!base.has_values || !cand.has_values) continue;  // empty on a side
    const struct {
      const char* metric;
      double baseline_value;
      double candidate_value;
    } tracked[] = {{"p50_ms", base.p50, cand.p50},
                   {"p99_ms", base.p99, cand.p99}};
    for (const auto& q : tracked) {
      if (std::max(q.baseline_value, q.candidate_value) < kMinQuantileMs)
        continue;  // sub-floor latencies are timer noise
      DiffRow row = classify(name, q.metric, q.baseline_value,
                             q.candidate_value, kQuantileThresholdPct);
      if (row.status == DiffRow::Status::Regressed) result.breached = true;
      result.quantiles.push_back(std::move(row));
    }
  }
  for (const auto& [name, base] : baseline.quantiles) {
    if (candidate.quantiles.count(name) != 0) continue;
    DiffRow row;
    row.name = name;
    row.metric = "p50_ms";
    row.baseline = base.p50;
    row.status = DiffRow::Status::Removed;
    result.quantiles.push_back(std::move(row));
  }

  // Estimate-quality gates: only when both runs carry a diag section (a
  // diag-off run has nothing to compare, and a diag-on candidate against a
  // pre-diag baseline is a code change, not a quality regression).
  if (baseline.has_diag && candidate.has_diag) {
    {
      // Nonconverged count is an absolute gate, not a percentage: each new
      // cap-exit source is an estimate the run can no longer vouch for.
      DiffRow row;
      row.name = "diag";
      row.metric = "nonconverged";
      row.baseline = static_cast<double>(baseline.diag_nonconverged);
      row.candidate = static_cast<double>(candidate.diag_nonconverged);
      row.delta_pct = delta_pct(row.baseline, row.candidate);
      if (candidate.diag_nonconverged > baseline.diag_nonconverged) {
        row.status = DiffRow::Status::Regressed;
        result.breached = true;
      } else if (candidate.diag_nonconverged < baseline.diag_nonconverged) {
        row.status = DiffRow::Status::Improved;
      }
      result.quality.push_back(std::move(row));
    }
    for (const auto& [name, cand] : candidate.estimates) {
      const auto found = baseline.estimates.find(name);
      if (found == baseline.estimates.end()) {
        DiffRow row;
        row.name = name;
        row.metric = "ci95_width";
        row.candidate = cand.ci95_width;
        row.status = DiffRow::Status::Added;
        result.quality.push_back(std::move(row));
        continue;
      }
      const RunReportData::EstimateRow& base = found->second;
      if (std::max(base.ci95_width, cand.ci95_width) < kMinCiWidth)
        continue;  // both intervals are effectively exact
      DiffRow row = classify(name, "ci95_width", base.ci95_width,
                             cand.ci95_width, kCiWidenThresholdPct);
      if (row.status == DiffRow::Status::Regressed) result.breached = true;
      result.quality.push_back(std::move(row));
    }
    for (const auto& [name, base] : baseline.estimates) {
      if (candidate.estimates.count(name) != 0) continue;
      DiffRow row;
      row.name = name;
      row.metric = "ci95_width";
      row.baseline = base.ci95_width;
      row.status = DiffRow::Status::Removed;
      result.quality.push_back(std::move(row));
    }
  }
  return result;
}

Table diff_table(const DiffResult& result) {
  Table table{{"kind", "name", "metric", "baseline", "candidate", "delta",
               "status"}};
  auto add_rows = [&table](const std::vector<DiffRow>& rows, const char* kind,
                           bool regressions_only) {
    for (const DiffRow& row : rows) {
      const bool regressed = row.status == DiffRow::Status::Regressed;
      if (regressions_only != regressed) continue;
      const std::string delta =
          row.status == DiffRow::Status::Added ||
                  row.status == DiffRow::Status::Removed
              ? "-"
              : (std::isfinite(row.delta_pct)
                     ? fixed(row.delta_pct, 1) + "%"
                     : "inf");
      table.add_row({kind, row.name, row.metric, fixed(row.baseline, 3),
                     fixed(row.candidate, 3), delta, to_string(row.status)});
    }
  };
  // Regressions first so a failing CI log leads with the verdict.
  add_rows(result.spans, "span", true);
  add_rows(result.totals, "total", true);
  add_rows(result.quantiles, "quantile", true);
  add_rows(result.quality, "quality", true);
  add_rows(result.spans, "span", false);
  add_rows(result.totals, "total", false);
  add_rows(result.quantiles, "quantile", false);
  add_rows(result.quality, "quality", false);
  return table;
}

}  // namespace sntrust
