#include "report/run_compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace sntrust {
namespace {

/// Builds a minimal schema-1 report document with one configurable span.
std::string report_json(double span_wall_ms, double total_wall_ms,
                        double peak_rss_bytes,
                        const std::string& extra_span = "") {
  std::ostringstream out;
  out << R"({"schema_version":1,"tool":"unit","config":{"threads":1},)"
      << R"("totals":{"wall_ms":)" << total_wall_ms
      << R"(,"cpu_ms":50.0,"peak_rss_bytes":)" << peak_rss_bytes << "},"
      << R"("spans":[{"path":"phase","count":2,"wall_ms":)" << span_wall_ms
      << R"(,"cpu_ms":40.0,"alloc_bytes":100,"alloc_count":10})";
  if (!extra_span.empty())
    out << R"(,{"path":")" << extra_span
        << R"(","count":1,"wall_ms":30.0,"cpu_ms":30.0})";
  out << R"(],"metrics":{"counters":{"walk.steps":7},"gauges":{}}})";
  return out.str();
}

RunReportData parse(const std::string& text) {
  return parse_run_report(json::Value::parse(text));
}

TEST(RunCompare, ParsesReportSectionsAndRejectsBadSchema) {
  const RunReportData data = parse(report_json(100.0, 200.0, 1000.0));
  EXPECT_EQ(data.schema_version, 1);
  EXPECT_EQ(data.tool, "unit");
  EXPECT_DOUBLE_EQ(data.totals.at("wall_ms"), 200.0);
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].path, "phase");
  EXPECT_EQ(data.spans[0].count, 2u);
  EXPECT_DOUBLE_EQ(data.spans[0].wall_ms, 100.0);
  EXPECT_EQ(data.spans[0].alloc_bytes, 100u);
  EXPECT_DOUBLE_EQ(data.counters.at("walk.steps"), 7.0);

  EXPECT_THROW(parse(R"({"tool":"x"})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"schema_version":99})"), std::runtime_error);
}

TEST(RunCompare, WithinThresholdIsClean) {
  const RunReportData baseline = parse(report_json(100.0, 200.0, 1000.0));
  const RunReportData candidate = parse(report_json(110.0, 210.0, 1000.0));
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(result.breached);
  for (const DiffRow& row : result.spans)
    EXPECT_EQ(row.status, DiffRow::Status::Ok);
}

TEST(RunCompare, SpanWallRegressionBreaches) {
  const RunReportData baseline = parse(report_json(100.0, 200.0, 1000.0));
  const RunReportData candidate = parse(report_json(140.0, 210.0, 1000.0));
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(result.breached);
  ASSERT_FALSE(result.spans.empty());
  EXPECT_EQ(result.spans[0].name, "phase");
  EXPECT_EQ(result.spans[0].status, DiffRow::Status::Regressed);
  EXPECT_NEAR(result.spans[0].delta_pct, 40.0, 1e-9);
}

TEST(RunCompare, ImprovementNeverBreaches) {
  const RunReportData baseline = parse(report_json(100.0, 200.0, 1000.0));
  const RunReportData candidate = parse(report_json(50.0, 100.0, 500.0));
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(result.breached);
  EXPECT_EQ(result.spans[0].status, DiffRow::Status::Improved);
}

TEST(RunCompare, NoiseFloorSilencesTinySpans) {
  const RunReportData baseline = parse(report_json(0.5, 200.0, 1000.0));
  const RunReportData candidate = parse(report_json(4.0, 210.0, 1000.0));
  // 8x slower, but both sides below the 5 ms floor: not a finding.
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(result.breached);
  EXPECT_TRUE(result.spans.empty());
}

TEST(RunCompare, TotalsWallAndRssGateIndependently) {
  const RunReportData baseline = parse(report_json(100.0, 200.0, 1000.0));
  DiffOptions options;
  {
    const RunReportData candidate = parse(report_json(100.0, 400.0, 1000.0));
    EXPECT_TRUE(diff_run_reports(baseline, candidate, options).breached);
  }
  {
    const RunReportData candidate = parse(report_json(100.0, 200.0, 2000.0));
    EXPECT_TRUE(diff_run_reports(baseline, candidate, options).breached);
  }
  {
    // +30% RSS sits under the default 50% gate.
    const RunReportData candidate = parse(report_json(100.0, 200.0, 1300.0));
    EXPECT_FALSE(diff_run_reports(baseline, candidate, options).breached);
  }
}

TEST(RunCompare, AddedAndRemovedSpansListedButNeverBreach) {
  const RunReportData baseline =
      parse(report_json(100.0, 200.0, 1000.0, "old_phase"));
  const RunReportData candidate =
      parse(report_json(100.0, 200.0, 1000.0, "new_phase"));
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_FALSE(result.breached);
  bool added = false;
  bool removed = false;
  for (const DiffRow& row : result.spans) {
    if (row.name == "new_phase") {
      EXPECT_EQ(row.status, DiffRow::Status::Added);
      added = true;
    }
    if (row.name == "old_phase") {
      EXPECT_EQ(row.status, DiffRow::Status::Removed);
      removed = true;
    }
  }
  EXPECT_TRUE(added);
  EXPECT_TRUE(removed);
}

TEST(RunCompare, DiffTableLeadsWithRegressions) {
  const RunReportData baseline = parse(report_json(100.0, 200.0, 1000.0));
  const RunReportData candidate = parse(report_json(150.0, 210.0, 1000.0));
  const Table table =
      diff_table(diff_run_reports(baseline, candidate, DiffOptions{}));
  std::ostringstream printed;
  table.print(printed);
  const std::string text = printed.str();
  const std::size_t regressed = text.find("REGRESSED");
  const std::size_t ok = text.find("  ok");
  ASSERT_NE(regressed, std::string::npos);
  EXPECT_TRUE(ok == std::string::npos || regressed < ok);
}

}  // namespace
}  // namespace sntrust
