// The run's knobs, read once: every SNTRUST_* environment variable parsed
// into one typed RunConfig, applied once, and recorded in the run report as
// the effective config. Nothing else in the library reads the environment.
//
//   SNTRUST_SCALE        number in [0.01, 100]       bench workload scale
//   SNTRUST_FULL_SCALE   0 or 1                      Table-I sizes
//   SNTRUST_THREADS      whole number in [1, 256]    pool size
//   SNTRUST_DEADLINE_MS  whole number in [1, 10^12]  process deadline
//   SNTRUST_CHECKPOINT   path                        sweep checkpoint
//   SNTRUST_SNAPSHOT     directory                   bench snapshot cache
//   SNTRUST_REPORT       path                        run report at exit
//   SNTRUST_TRACE        path                        Chrome trace at exit
//   SNTRUST_TELEMETRY    path[:period_ms]            live JSONL frames
//                        (period in [0, 10^12], 0 meaning 1)
//   SNTRUST_DIAG         0 or 1                      estimator diagnostics
//   SNTRUST_ALLOC_STATS  0 or 1                      allocation counting
//
// An empty value means unset. A malformed value is a UsageError naming the
// variable and its value (exit 64 through guarded_main), and an unknown
// SNTRUST_* name is one warning line on stderr. sntrust_cli's flags set the
// same fields (set_knob) before the one apply, so a report's config reads
// the same whether a flag or the environment set a knob.
//
// guarded_main is the entry point of every bench, example, sntrust_cli and
// sntrust_serve: it installs the cooperative SIGINT/SIGTERM handlers, parses
// and applies the config, runs the body, and maps how it ends to a
// sysexits-style code: 64 for a usage or config error, 75 for an
// interrupted run (exec::interrupted_exit), 65 for bad input (IoError,
// std::invalid_argument), 1 for anything else.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"

namespace sntrust::exec {

/// A malformed command-line argument or SNTRUST_* value: exit 64.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// One field per SNTRUST_* knob; the defaults are the unset values.
struct RunConfig {
  double scale = 1.0;               ///< SNTRUST_SCALE
  bool full_scale = false;          ///< SNTRUST_FULL_SCALE
  std::uint32_t threads = 0;        ///< SNTRUST_THREADS; 0 = every core
  std::uint64_t deadline_ms = 0;    ///< SNTRUST_DEADLINE_MS; 0 = none
  std::string checkpoint;           ///< SNTRUST_CHECKPOINT
  std::string snapshot;             ///< SNTRUST_SNAPSHOT
  std::string report;               ///< SNTRUST_REPORT
  std::string trace;                ///< SNTRUST_TRACE
  obs::TelemetryOptions telemetry;  ///< SNTRUST_TELEMETRY
  bool diag = false;                ///< SNTRUST_DIAG
  bool alloc_stats = false;         ///< SNTRUST_ALLOC_STATS

  bool operator==(const RunConfig&) const = default;
};

/// Sets the field of the knob `name` (an SNTRUST_* name) from `value`.
/// Throws UsageError naming `source` (the variable, or the flag that set
/// it) and the value when the value is malformed, and std::logic_error
/// when `name` is not a knob.
void set_knob(RunConfig& config, std::string_view name, std::string_view value,
              std::string_view source);

/// The config of an environ-style block (null-terminated "NAME=value"
/// strings): every SNTRUST_* entry through set_knob, an empty value left
/// unset, and one line on `warnings` for each unknown SNTRUST_* name.
RunConfig parse_run_config(const char* const* environment,
                           std::ostream& warnings);

/// parse_run_config over this process's environment, warnings to stderr.
RunConfig run_config_from_environment();

/// Arms each subsystem through its setter: the pool size, allocation
/// counting, diagnostics, the process deadline, the checkpoint path, then
/// the trace export, the report export and the telemetry exporter, in that
/// order, so at exit telemetry's final frame lands before the report is
/// assembled. Records every knob's effective value in the report's config.
void apply(const RunConfig& config);

/// The config the last apply armed; the defaults before any.
const RunConfig& applied_config();

/// A binary's main: see the header comment. `configure` may overwrite
/// fields of the environment's config (a tool's flags) before apply.
int guarded_main(const std::function<int()>& body,
                 const std::function<void(RunConfig&)>& configure = {});

}  // namespace sntrust::exec
