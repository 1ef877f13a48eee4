#include "obs/diag.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "report/run_compare.hpp"
#include "test_graphs.hpp"
#include "util/json.hpp"

namespace sntrust {
namespace {

using obs::ConfidenceInterval;
using obs::ConvergenceTrace;
using obs::DiagRegistry;
using obs::TraceSummary;
using testing::petersen_graph;
using testing::two_cliques;

// Every test starts and ends with diagnostics disarmed and the registry
// empty, so diag state never leaks into unrelated tests (the registry is a
// process-wide singleton the run report reads at exit).
class DiagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_diag_enabled(false);
    DiagRegistry::instance().reset();
    obs::metrics_reset_all();
  }
  void TearDown() override {
    obs::set_diag_enabled(false);
    DiagRegistry::instance().reset();
    obs::metrics_reset_all();
  }
};

// ----------------------------------------------------- convergence trace ---

TEST_F(DiagTest, TraceKeepsEverySampleBelowCapacity) {
  ConvergenceTrace trace{8};
  for (int i = 0; i < 5; ++i) trace.add(1.0 / (i + 1));
  EXPECT_EQ(trace.iterations(), 5u);
  EXPECT_DOUBLE_EQ(trace.final_value(), 1.0 / 5);
  const auto pts = trace.points();
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].first, i);
    EXPECT_DOUBLE_EQ(pts[i].second, 1.0 / (i + 1));
  }
}

TEST_F(DiagTest, TraceThinsGeometricallyAndKeepsEndpoints) {
  ConvergenceTrace trace{8};
  const auto value_at = [](std::uint64_t i) {
    return std::exp(-0.01 * static_cast<double>(i));
  };
  for (std::uint64_t i = 0; i < 1000; ++i) trace.add(value_at(i));
  EXPECT_EQ(trace.iterations(), 1000u);
  const auto pts = trace.points();
  // Bounded: at most capacity kept samples plus the appended exact final.
  EXPECT_LE(pts.size(), 9u);
  EXPECT_GE(pts.size(), 4u);
  // First and exact final sample always survive the thinning.
  EXPECT_EQ(pts.front().first, 0u);
  EXPECT_DOUBLE_EQ(pts.front().second, value_at(0));
  EXPECT_EQ(pts.back().first, 999u);
  EXPECT_DOUBLE_EQ(pts.back().second, value_at(999));
  // Kept iterations are strictly increasing and carry their true values.
  for (std::size_t i = 0; i + 1 < pts.size(); ++i)
    EXPECT_LT(pts[i].first, pts[i + 1].first);
  for (const auto& [iteration, value] : pts)
    EXPECT_DOUBLE_EQ(value, value_at(iteration));
}

TEST_F(DiagTest, TraceFitsExactExponentialDecayRate) {
  ConvergenceTrace trace;
  for (std::uint64_t i = 0; i < 200; ++i)
    trace.add(3.0 * std::exp(-0.07 * static_cast<double>(i)));
  // Exact exponential: the log-linear fit recovers the rate to fp precision.
  EXPECT_NEAR(trace.fitted_decay_rate(), 0.07, 1e-9);
}

TEST_F(DiagTest, TraceDecayRateDegeneratesToZero) {
  ConvergenceTrace empty;
  EXPECT_DOUBLE_EQ(empty.fitted_decay_rate(), 0.0);
  ConvergenceTrace flat;
  for (int i = 0; i < 10; ++i) flat.add(0.5);
  EXPECT_NEAR(flat.fitted_decay_rate(), 0.0, 1e-12);
  ConvergenceTrace nonpositive;  // log undefined: those samples are skipped
  nonpositive.add(0.0);
  nonpositive.add(-1.0);
  EXPECT_DOUBLE_EQ(nonpositive.fitted_decay_rate(), 0.0);
}

TEST_F(DiagTest, TracePlateauDetection) {
  // Decays for 10 iterations, then sits at the final value: the plateau
  // onset is the first settled sample.
  ConvergenceTrace settled{128};
  for (std::uint64_t i = 0; i < 100; ++i)
    settled.add(i < 10 ? 1.0 - 0.1 * static_cast<double>(i) : 0.05);
  EXPECT_EQ(settled.plateau_iteration(), 10u);

  // A flat curve plateaus immediately.
  ConvergenceTrace flat;
  for (int i = 0; i < 20; ++i) flat.add(0.3);
  EXPECT_EQ(flat.plateau_iteration(), 0u);

  // A curve that never settles "plateaus" only at its final sample.
  ConvergenceTrace oscillating;
  for (int i = 0; i < 20; ++i) oscillating.add(i % 2 == 0 ? 1.0 : 0.0);
  EXPECT_EQ(oscillating.plateau_iteration(), 19u);

  EXPECT_EQ(ConvergenceTrace{}.plateau_iteration(), 0u);
}

// ------------------------------------------------- confidence intervals ---

TEST_F(DiagTest, MeanCiDegenerateInputsCollapseToZeroWidth) {
  const ConfidenceInterval none = obs::mean_ci95(0.0, 0.0, 0);
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.width(), 0.0);

  const ConfidenceInterval one = obs::mean_ci95(7.0, 49.0, 1);
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.width(), 0.0);

  // Identical samples: zero variance, zero width at the mean.
  const ConfidenceInterval constant = obs::mean_ci95(5.0 * 3.0, 5.0 * 9.0, 5);
  EXPECT_DOUBLE_EQ(constant.mean, 3.0);
  EXPECT_DOUBLE_EQ(constant.width(), 0.0);
}

TEST_F(DiagTest, MeanCiMatchesHandComputedInterval) {
  // Samples {1,2,3,4,5}: mean 3, sample variance 2.5.
  const ConfidenceInterval ci = obs::mean_ci95(15.0, 55.0, 5);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_EQ(ci.n, 5u);
  EXPECT_DOUBLE_EQ(ci.ess, 5.0);
  const double half = 1.959963984540054 * std::sqrt(2.5 / 5.0);
  EXPECT_NEAR(ci.lo, 3.0 - half, 1e-12);
  EXPECT_NEAR(ci.hi, 3.0 + half, 1e-12);
}

TEST_F(DiagTest, WilsonCiBehavesAtTheBoundaries) {
  const ConfidenceInterval none = obs::wilson_ci95(0, 0);
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.width(), 0.0);

  // 0/n: the interval hugs zero but stays open above it (unlike the normal
  // approximation, which collapses to [0, 0]).
  const ConfidenceInterval zero = obs::wilson_ci95(0, 10);
  EXPECT_DOUBLE_EQ(zero.mean, 0.0);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.5);

  // n/n mirrors it at one.
  const ConfidenceInterval full = obs::wilson_ci95(10, 10);
  EXPECT_DOUBLE_EQ(full.mean, 1.0);
  EXPECT_DOUBLE_EQ(full.hi, 1.0);
  EXPECT_LT(full.lo, 1.0);
  EXPECT_GT(full.lo, 0.5);

  const ConfidenceInterval half = obs::wilson_ci95(5, 10);
  EXPECT_DOUBLE_EQ(half.mean, 0.5);
  EXPECT_LT(half.lo, 0.5);
  EXPECT_GT(half.hi, 0.5);
  // Symmetric proportion: Wilson is symmetric around 1/2.
  EXPECT_NEAR(half.lo + half.hi, 1.0, 1e-12);
}

// ---------------------------------------------------------- registry -----

TEST_F(DiagTest, RegistryDedupesRepeatedEstimateNames) {
  DiagRegistry& registry = DiagRegistry::instance();
  registry.record_estimate("x", obs::mean_ci95(1.0, 1.0, 1));
  registry.record_estimate("x", obs::mean_ci95(2.0, 4.0, 1));
  registry.record_estimate("x", obs::mean_ci95(3.0, 9.0, 1));
  const json::Value diag = registry.build();
  const json::Value* estimates = diag.find("estimates");
  ASSERT_NE(estimates, nullptr);
  ASSERT_EQ(estimates->as_object().size(), 3u);
  EXPECT_EQ(estimates->as_object()[0].first, "x");
  EXPECT_EQ(estimates->as_object()[1].first, "x#2");
  EXPECT_EQ(estimates->as_object()[2].first, "x#3");
  EXPECT_DOUBLE_EQ(estimates->find("x#3")->find("mean")->as_number(), 3.0);
}

TEST_F(DiagTest, RegistryCapsTracesPerKindAndCountsDrops) {
  DiagRegistry& registry = DiagRegistry::instance();
  ConvergenceTrace trace;
  trace.add(1.0);
  trace.add(0.5);
  // The cap (kDiagMaxTracesPerKind) is 64 per kind.
  for (std::uint64_t s = 0; s < 70; ++s)
    registry.record_trace(obs::summarize_trace("capped", s, trace, true));
  registry.record_trace(obs::summarize_trace("other", 0, trace, true));
  const json::Value diag = registry.build();
  const json::Value* traces = diag.find("traces");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->find("capped")->as_array().size(), 64u);
  EXPECT_EQ(traces->find("other")->as_array().size(), 1u);
  ASSERT_NE(diag.find("dropped_traces"), nullptr);
  EXPECT_EQ(diag.find("dropped_traces")->as_int(), 6);
}

TEST_F(DiagTest, RegistryBuildsTheDocumentedSectionShape) {
  DiagRegistry& registry = DiagRegistry::instance();
  EXPECT_TRUE(registry.empty());

  ConvergenceTrace trace;
  for (int i = 0; i < 6; ++i) trace.add(1.0 / (1 << i));
  registry.record_trace(obs::summarize_trace("mixing.tvd", 3, trace, true));
  registry.record_estimate("mixing.tvd_final", obs::mean_ci95(15.0, 55.0, 5));
  registry.record_nonconverged("slem.power_iteration", 0, 2, 0.9);
  EXPECT_FALSE(registry.empty());

  const json::Value diag = registry.build();
  EXPECT_FALSE(diag.find("converged")->as_bool());
  EXPECT_EQ(diag.find("nonconverged")->as_int(), 1);
  EXPECT_GT(diag.find("epsilon")->as_number(), 0.0);
  EXPECT_EQ(diag.find("dropped_traces"), nullptr);  // nothing truncated

  const json::Value& flag = diag.find("flagged_sources")->as_array().at(0);
  EXPECT_EQ(flag.find("kind")->as_string(), "slem.power_iteration");
  EXPECT_EQ(flag.find("iterations")->as_int(), 2);
  EXPECT_DOUBLE_EQ(flag.find("final_value")->as_number(), 0.9);

  const json::Value& row =
      diag.find("traces")->find("mixing.tvd")->as_array().at(0);
  EXPECT_EQ(row.find("source")->as_int(), 3);
  EXPECT_EQ(row.find("iterations")->as_int(), 6);
  EXPECT_TRUE(row.find("converged")->as_bool());
  EXPECT_GT(row.find("decay_rate")->as_number(), 0.0);
  const json::Array& points = row.find("points")->as_array();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points.front().as_array()[0].as_int(), 0);
  EXPECT_DOUBLE_EQ(points.back().as_array()[1].as_number(), 1.0 / 32);

  registry.reset();
  EXPECT_TRUE(registry.empty());
}

TEST_F(DiagTest, RegistryBumpsTelemetryCounters) {
  DiagRegistry& registry = DiagRegistry::instance();
  ConvergenceTrace trace;
  trace.add(0.4);
  registry.record_trace(obs::summarize_trace("k", 0, trace, true));
  registry.record_nonconverged("k", 1, 7, 0.4);
  // These counters (and the per-kind gauges) ride along in telemetry frames.
  EXPECT_EQ(obs::metrics_counter("diag.traces").value(), 1u);
  EXPECT_EQ(obs::metrics_counter("diag.nonconverged").value(), 1u);
}

// ------------------------------------------------------ estimator wiring ---

MixingOptions small_mixing_options() {
  MixingOptions options;
  options.num_sources = 5;
  options.max_walk_length = 30;
  options.seed = 33;
  return options;
}

TEST_F(DiagTest, MixingRecordsTracesAndEstimatesWhenArmed) {
  obs::set_diag_enabled(true);
  const Graph g = petersen_graph();
  measure_mixing(g, small_mixing_options());

  const json::Value diag = DiagRegistry::instance().build();
  // An expander crosses epsilon well before 30 steps: nothing is flagged.
  EXPECT_TRUE(diag.find("converged")->as_bool());
  EXPECT_EQ(diag.find("nonconverged")->as_int(), 0);
  const json::Value* traces = diag.find("traces")->find("mixing.tvd");
  ASSERT_NE(traces, nullptr);
  EXPECT_EQ(traces->as_array().size(), 5u);
  for (const json::Value& row : traces->as_array()) {
    EXPECT_TRUE(row.find("converged")->as_bool());
    EXPECT_EQ(row.find("iterations")->as_int(), 31);  // t in [0, max_len]
    EXPECT_GT(row.find("decay_rate")->as_number(), 0.0);
  }
  const json::Value* estimates = diag.find("estimates");
  ASSERT_NE(estimates->find("mixing.tvd.tvd_final"), nullptr);
  ASSERT_NE(estimates->find("mixing.tvd.time_to_eps"), nullptr);
  EXPECT_EQ(estimates->find("mixing.tvd.tvd_final")->find("n")->as_int(), 5);
}

TEST_F(DiagTest, MixingOutputIsBitwiseIdenticalDiagOnAndOff) {
  const Graph g = two_cliques(5);
  obs::set_diag_enabled(false);
  const MixingCurves off = measure_mixing(g, small_mixing_options());
  EXPECT_TRUE(DiagRegistry::instance().empty());

  obs::set_diag_enabled(true);
  const MixingCurves on = measure_mixing(g, small_mixing_options());
  EXPECT_FALSE(DiagRegistry::instance().empty());

  // Diagnostics only observe: the measurement itself must not move a bit.
  ASSERT_EQ(off.sources, on.sources);
  ASSERT_EQ(off.tvd.size(), on.tvd.size());
  for (std::size_t s = 0; s < off.tvd.size(); ++s)
    EXPECT_EQ(off.tvd[s], on.tvd[s]) << "source index " << s;
}

TEST_F(DiagTest, SlemCapExitIsFlaggedAsNonconverged) {
  obs::set_diag_enabled(true);
  // C_20001's SLEM is cos(pi / 20001), 1.2e-8 below 1, with the next
  // eigenvalues about 1e-7 apart: no bracket under 1e-6 within the cap.
  const SlemResult result =
      second_largest_eigenvalue(testing::cycle_graph(20001));
  EXPECT_FALSE(result.certified);
  EXPECT_EQ(result.steps, kSlemMaxSteps);
  EXPECT_GE(result.hi - result.lo, kSlemBracketWidth);
  EXPECT_EQ(format_mu(result.mu, result.certified, 4), "1.0000 uncertified");

  const json::Value diag = DiagRegistry::instance().build();
  EXPECT_FALSE(diag.find("converged")->as_bool());
  EXPECT_GE(diag.find("nonconverged")->as_int(), 1);
  const json::Value& flag = diag.find("flagged_sources")->as_array().at(0);
  EXPECT_EQ(flag.find("kind")->as_string(), "slem.lanczos");
  EXPECT_EQ(flag.find("iterations")->as_int(),
            static_cast<std::int64_t>(kSlemMaxSteps));
  // The bracket still lands beside the flag.
  const json::Value* mu = diag.find("estimates")->find("slem.mu");
  ASSERT_NE(mu, nullptr);
  EXPECT_EQ(mu->find("ci95_lo")->as_number(), result.lo);
  EXPECT_EQ(mu->find("ci95_hi")->as_number(), result.hi);
  EXPECT_NE(diag.find("estimates")->find("slem.spectral_gap"), nullptr);
  // The trajectory's x-axis is the Lanczos step.
  const json::Value& trace =
      diag.find("traces")->find("slem.lanczos")->as_array().at(0);
  EXPECT_EQ(trace.find("iterations")->as_int(),
            static_cast<std::int64_t>(kSlemMaxSteps));
}

TEST_F(DiagTest, ReportCarriesDiagSectionOnlyWhenPopulated) {
  obs::RunReporter& reporter = obs::RunReporter::instance();
  EXPECT_EQ(reporter.build().find("diag"), nullptr);

  DiagRegistry::instance().record_estimate("e", obs::wilson_ci95(3, 10));
  const json::Value report = reporter.build();
  const json::Value* diag = report.find("diag");
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->find("estimates")->find("e"), nullptr);
  // Provenance rides in config so diffs can refuse apples-to-oranges.
  const json::Value* config = report.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_NE(config->find("compiler"), nullptr);
  EXPECT_NE(config->find("diag"), nullptr);
}

// ------------------------------------------------- quality gates / diffs ---

RunReportData report_with_diag(std::int64_t nonconverged, double ci_width,
                               const std::string& graph_fingerprint = "0xaa",
                               double scale = 1.0) {
  const double hi = 1.0 + ci_width / 2.0;
  const double lo = 1.0 - ci_width / 2.0;
  const std::string text =
      "{\"schema_version\":1,\"tool\":\"t\","
      "\"config\":{\"graph.ego\":\"" + graph_fingerprint +
      "\",\"scale\":" + std::to_string(scale) + "},"
      "\"diag\":{\"converged\":" + (nonconverged == 0 ? "true" : "false") +
      ",\"nonconverged\":" + std::to_string(nonconverged) +
      ",\"flagged_sources\":[],"
      "\"estimates\":{\"e\":{\"mean\":1.0,\"ci95_lo\":" + std::to_string(lo) +
      ",\"ci95_hi\":" + std::to_string(hi) +
      ",\"ci95_width\":" + std::to_string(ci_width) +
      ",\"n\":10,\"ess\":10.0}}}}";
  return parse_run_report(json::Value::parse(text));
}

TEST_F(DiagTest, NewNonconvergenceBreachesTheQualityGate) {
  const RunReportData baseline = report_with_diag(0, 0.1);
  const RunReportData candidate = report_with_diag(1, 0.1);
  const DiffResult result =
      diff_run_reports(baseline, candidate, DiffOptions{});
  EXPECT_TRUE(result.breached);
  bool saw_gate = false;
  for (const DiffRow& row : result.quality)
    if (row.metric == "nonconverged") {
      saw_gate = true;
      EXPECT_EQ(row.status, DiffRow::Status::Regressed);
      EXPECT_DOUBLE_EQ(row.candidate, 1.0);
    }
  EXPECT_TRUE(saw_gate);
}

TEST_F(DiagTest, CiWidthGrowthBreachesPastTheThreshold) {
  const RunReportData baseline = report_with_diag(0, 0.10);
  // +100% width: the estimate got twice as uncertain.
  EXPECT_TRUE(
      diff_run_reports(baseline, report_with_diag(0, 0.20), DiffOptions{})
          .breached);
  // +20% stays under the default 50% gate.
  EXPECT_FALSE(
      diff_run_reports(baseline, report_with_diag(0, 0.12), DiffOptions{})
          .breached);
}

TEST_F(DiagTest, QualityGatesSkipReportsWithoutDiag) {
  const std::string legacy_text = "{\"schema_version\":1,\"tool\":\"t\"}";
  const RunReportData legacy =
      parse_run_report(json::Value::parse(legacy_text));
  EXPECT_FALSE(legacy.has_diag);
  // A pre-diag baseline is a code change, not a quality regression.
  const DiffResult result =
      diff_run_reports(legacy, report_with_diag(3, 0.5), DiffOptions{});
  EXPECT_TRUE(result.quality.empty());
  EXPECT_FALSE(result.breached);
}

TEST_F(DiagTest, ProvenanceMismatchExplainsTheRefusal) {
  const RunReportData base = report_with_diag(0, 0.1, "0xaa", 1.0);
  EXPECT_EQ(provenance_mismatch(base, report_with_diag(0, 0.1, "0xaa", 1.0)),
            "");

  const std::string fingerprint =
      provenance_mismatch(base, report_with_diag(0, 0.1, "0xbb", 1.0));
  EXPECT_NE(fingerprint.find("graph fingerprint mismatch"), std::string::npos);
  EXPECT_NE(fingerprint.find("graph.ego"), std::string::npos);

  const std::string scale =
      provenance_mismatch(base, report_with_diag(0, 0.1, "0xaa", 0.1));
  EXPECT_NE(scale.find("scale mismatch"), std::string::npos);

  // Legacy reports without provenance always compare as compatible.
  const RunReportData legacy =
      parse_run_report(json::Value::parse("{\"schema_version\":1}"));
  EXPECT_EQ(provenance_mismatch(legacy, base), "");
  EXPECT_EQ(provenance_mismatch(base, legacy), "");
}

// ------------------------------------------------------ telemetry frames ---

TEST_F(DiagTest, TruncatedTelemetryTailIsCounted) {
  const std::string path =
      ::testing::TempDir() + "/sntrust_diag_frames.jsonl";
  {
    std::ofstream out{path, std::ios::trunc};
    out << "{\"t_ms\":1}\n{\"t_ms\":2}\n{\"t_ms\":3,\"trunc";  // kill mid-append
  }
  const obs::TelemetryFrames frames = obs::read_telemetry_frames(path);
  EXPECT_EQ(frames.frames.size(), 2u);
  EXPECT_TRUE(frames.truncated_tail);
  EXPECT_EQ(frames.truncated_frames, 1u);

  {
    std::ofstream out{path, std::ios::trunc};
    out << "{\"t_ms\":1}\n{\"t_ms\":2}\n";
  }
  const obs::TelemetryFrames clean = obs::read_telemetry_frames(path);
  EXPECT_EQ(clean.frames.size(), 2u);
  EXPECT_FALSE(clean.truncated_tail);
  EXPECT_EQ(clean.truncated_frames, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
