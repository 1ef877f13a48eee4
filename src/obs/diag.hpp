// Estimator diagnostics: convergence traces, confidence intervals, and
// non-convergence flags for every measured property.
//
// The pipeline's outputs are statistical estimates — mixing time from TVD
// decay, SLEM from power iteration, expansion ratios from sampled sweeps,
// GateKeeper acceptance rates from Bernoulli trials — but the run report
// historically carried only the final point values. This layer records the
// evidence behind them: per-source convergence trajectories (bounded via
// geometric thinning, so memory stays O(log iterations) per trace), fitted
// decay rates, detected plateaus, CI95 intervals, and an explicit flag for
// any source that exited on an iteration cap instead of a tolerance.
//
// Contract:
//   - Off by default. Arm with SNTRUST_DIAG=1 or sntrust_cli --diag (both
//     through exec::apply's set_diag_enabled). When disarmed every entry
//     point is a cheap early-out and nothing is allocated.
//   - Bitwise-neutral: diagnostics only *observe* values the measurement
//     already computed; enabling them never changes a measured output.
//   - Deterministic: traces are recorded serially from collected sweep
//     results (never from worker threads), so the diag section is bitwise
//     identical at any thread count.
//
// The collected state lands in the run report's "diag" section (see
// obs/run_report.hpp) and bumps diag.* counters that ride along in live
// telemetry frames. `tools/sntrust_diag` renders the section;
// `sntrust_benchdiff` gates on it (CI width, nonconverged count).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace sntrust::obs {

/// Whether diagnostics collection is armed; off until set.
bool diag_enabled();
/// Arms or disarms collection (exec::apply, tests).
void set_diag_enabled(bool enabled);

/// TVD threshold used to decide whether a mixing curve "converged" (the
/// paper's figures use the variation-distance target, and 0.1 keeps the
/// reference datasets green).
inline constexpr double kDiagEpsilon = 0.1;

/// Traces kept per kind in the report; drops past the cap are counted.
inline constexpr std::uint64_t kDiagMaxTracesPerKind = 64;

/// Bounded recorder for one convergence trajectory. Appends are O(1); once
/// `capacity` samples are held, every other kept sample is dropped and the
/// sampling stride doubles, so an N-iteration run keeps O(log N) memory and
/// a geometrically-spaced skeleton of the curve. The first and the exact
/// final sample are always preserved.
class ConvergenceTrace {
 public:
  explicit ConvergenceTrace(std::size_t capacity = 64);

  void add(double value);

  std::uint64_t iterations() const { return next_iteration_; }
  double final_value() const { return last_value_; }
  bool empty() const { return next_iteration_ == 0; }

  /// Kept samples as (iteration, value) pairs, ending with the exact final
  /// sample even when thinning skipped it.
  std::vector<std::pair<std::uint64_t, double>> points() const;

  /// Least-squares decay rate r of value ~ C * exp(-r * iteration), fitted
  /// over the kept samples with value > 0 (log-linear regression). Positive
  /// for a decaying curve; 0 when fewer than two positive samples exist.
  double fitted_decay_rate() const;

  /// Earliest kept iteration from which every later kept value stays within
  /// `rel_tol` * max(|final|, abs_floor) of the final value — the detected
  /// plateau onset. Returns the final iteration when the curve never
  /// settles, 0 for an empty trace.
  std::uint64_t plateau_iteration(double rel_tol = 0.05,
                                  double abs_floor = 1e-12) const;

 private:
  void thin();

  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t next_iteration_ = 0;
  double last_value_ = 0.0;
  std::vector<std::pair<std::uint64_t, double>> samples_;
};

/// A two-sided 95% confidence interval around a mean estimate.
struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t n = 0;      // samples behind the estimate
  double ess = 0.0;         // effective sample size (== n for iid samples)

  double width() const { return hi - lo; }
};

/// Normal-approximation CI95 for a mean from (sum, sum of squares, n).
/// Degenerate inputs (n < 2, non-positive variance) collapse to a
/// zero-width interval at the mean.
ConfidenceInterval mean_ci95(double sum, double sumsq, std::uint64_t n);

/// Wilson score CI95 for a binomial proportion — well-behaved at 0/n and
/// n/n where the normal approximation degenerates.
ConfidenceInterval wilson_ci95(std::uint64_t successes, std::uint64_t trials);

/// One recorded trajectory, ready for the report.
struct TraceSummary {
  std::string kind;          // "mixing.tvd", "slem.power_iteration", ...
  std::uint64_t source = 0;  // vertex id / trial index the trace belongs to
  std::uint64_t iterations = 0;
  bool converged = true;
  double final_value = 0.0;
  double decay_rate = 0.0;
  std::uint64_t plateau_iteration = 0;
  std::vector<std::pair<std::uint64_t, double>> points;
};

/// Builds a TraceSummary from a finished trace (fit + plateau detection).
TraceSummary summarize_trace(const std::string& kind, std::uint64_t source,
                             const ConvergenceTrace& trace, bool converged);

/// Process-wide diagnostics collector. All mutation goes through a mutex —
/// recording happens on the serial aggregation path, so this is never hot.
/// Intentionally leaked like the other obs singletons so the run-report
/// atexit hook finds it alive.
class DiagRegistry {
 public:
  static DiagRegistry& instance();

  /// Appends one trace summary. Traces are capped per kind
  /// (kDiagMaxTracesPerKind); drops past the cap are counted and reported
  /// so truncation is never silent.
  void record_trace(TraceSummary summary);

  /// Records one named estimate with its CI. A repeated name gets a "#2",
  /// "#3", ... suffix so successive measurements in one process never
  /// overwrite each other.
  void record_estimate(const std::string& name, const ConfidenceInterval& ci);

  /// Flags a source that exited on its iteration cap rather than the
  /// tolerance. Bumps the diag.nonconverged counter (visible in telemetry
  /// frames) and lands in the report's flagged_sources list.
  void record_nonconverged(const std::string& kind, std::uint64_t source,
                           std::uint64_t iterations, double final_value);

  /// True when nothing has been recorded (the report omits the section).
  bool empty() const;

  /// Assembles the "diag" run-report section:
  ///   {"converged": bool, "nonconverged": N, "epsilon": eps,
  ///    "flagged_sources": [{kind, source, iterations, final_value}, ...],
  ///    "estimates": {name: {mean, ci95_lo, ci95_hi, ci95_width, n, ess}},
  ///    "traces": {kind: [{source, iterations, converged, decay_rate,
  ///                       plateau_iteration, final_value,
  ///                       points: [[iter, value], ...]}, ...]},
  ///    "dropped_traces": N}   // only when the per-kind cap truncated
  void reset();
  json::Value build() const;

 private:
  DiagRegistry() = default;

  struct Flagged {
    std::string kind;
    std::uint64_t source;
    std::uint64_t iterations;
    double final_value;
  };

  mutable std::mutex mutex_;
  std::vector<TraceSummary> traces_;
  std::vector<std::pair<std::string, ConfidenceInterval>> estimates_;
  std::vector<Flagged> flagged_;
  std::uint64_t dropped_traces_ = 0;
};

}  // namespace sntrust::obs
