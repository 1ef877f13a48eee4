#include "exec/run_config.hpp"

#include <iostream>
#include <string>

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "graph/io.hpp"
#include "obs/diag.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/parse.hpp"

extern char** environ;

namespace sntrust::exec {

namespace {

// A deadline is added to the steady clock in nanoseconds; 10^12 ms (about
// 31 years) keeps that sum within its 64-bit range.
constexpr std::uint64_t kMaxDeadlineMs = 1'000'000'000'000;

bool set_bit(bool& field, std::string_view text) {
  const auto bit = parse_count(text, 0, 1);
  if (bit) field = *bit == 1;
  return bit.has_value();
}

struct Knob {
  std::string_view name;
  const char* accepted;  ///< for the usage error
  bool (*set)(RunConfig&, std::string_view);  ///< false: malformed
};

constexpr Knob kKnobs[] = {
    {"SNTRUST_SCALE", "a number in [0.01, 100]",
     [](RunConfig& c, std::string_view text) {
       const auto scale = parse_nonnegative(text);
       if (!scale || *scale < 0.01 || *scale > 100.0) return false;
       c.scale = *scale;
       return true;
     }},
    {"SNTRUST_FULL_SCALE", "0 or 1",
     [](RunConfig& c, std::string_view text) {
       return set_bit(c.full_scale, text);
     }},
    {"SNTRUST_THREADS", "a whole number in [1, 256]",
     [](RunConfig& c, std::string_view text) {
       const auto threads = parse_count(text, 1, parallel::kMaxThreads);
       if (threads) c.threads = static_cast<std::uint32_t>(*threads);
       return threads.has_value();
     }},
    {"SNTRUST_DEADLINE_MS", "a whole number of milliseconds in [1, 10^12]",
     [](RunConfig& c, std::string_view text) {
       const auto ms = parse_count(text, 1, kMaxDeadlineMs);
       if (ms) c.deadline_ms = *ms;
       return ms.has_value();
     }},
    {"SNTRUST_CHECKPOINT", "a path",
     [](RunConfig& c, std::string_view text) {
       c.checkpoint = text;
       return true;
     }},
    {"SNTRUST_SNAPSHOT", "a directory",
     [](RunConfig& c, std::string_view text) {
       c.snapshot = text;
       return true;
     }},
    {"SNTRUST_REPORT", "a path",
     [](RunConfig& c, std::string_view text) {
       c.report = text;
       return true;
     }},
    {"SNTRUST_TRACE", "a path",
     [](RunConfig& c, std::string_view text) {
       c.trace = text;
       return true;
     }},
    {"SNTRUST_TELEMETRY", "path[:period_ms], the period in [0, 10^12]",
     [](RunConfig& c, std::string_view text) {
       const auto telemetry = obs::parse_telemetry_spec(text);
       if (telemetry) c.telemetry = *telemetry;
       return telemetry.has_value();
     }},
    {"SNTRUST_DIAG", "0 or 1",
     [](RunConfig& c, std::string_view text) {
       return set_bit(c.diag, text);
     }},
    {"SNTRUST_ALLOC_STATS", "0 or 1",
     [](RunConfig& c, std::string_view text) {
       return set_bit(c.alloc_stats, text);
     }},
};

const Knob* find_knob(std::string_view name) {
  for (const Knob& knob : kKnobs)
    if (knob.name == name) return &knob;
  return nullptr;
}

RunConfig& applied() {
  static RunConfig config;
  return config;
}

}  // namespace

void set_knob(RunConfig& config, std::string_view name, std::string_view value,
              std::string_view source) {
  const Knob* knob = find_knob(name);
  if (knob == nullptr)
    throw std::logic_error("set_knob: not a knob: " + std::string{name});
  if (!knob->set(config, value))
    throw UsageError(std::string{source} + " '" + std::string{value} +
                     "': want " + knob->accepted);
}

RunConfig parse_run_config(const char* const* environment,
                           std::ostream& warnings) {
  RunConfig config;
  for (; environment != nullptr && *environment != nullptr; ++environment) {
    const std::string_view entry{*environment};
    if (!entry.starts_with("SNTRUST_")) continue;
    const std::size_t equals = entry.find('=');
    const std::string_view name = entry.substr(0, equals);
    const std::string_view value =
        equals == std::string_view::npos ? "" : entry.substr(equals + 1);
    if (find_knob(name) == nullptr)
      warnings << "warning: ignoring unknown " << name << "\n";
    else if (!value.empty())
      set_knob(config, name, value, name);
  }
  return config;
}

RunConfig run_config_from_environment() {
  return parse_run_config(environ, std::cerr);
}

void apply(const RunConfig& config) {
  parallel::set_thread_count(config.threads);
  obs::set_alloc_stats_enabled(config.alloc_stats);
  obs::set_diag_enabled(config.diag);
  set_process_deadline(
      config.deadline_ms == 0
          ? Deadline{}
          : Deadline::after_ms(static_cast<std::int64_t>(config.deadline_ms)));
  CheckpointStore::instance().set_path(config.checkpoint);

  // Exit hooks run last-registered first: telemetry's final frame, then
  // the report (which counts that frame), then the trace.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_export_path(config.trace);
  if (!config.trace.empty()) tracer.enable();
  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.set_export_path(config.report);
  reporter.set_config("scale", config.scale);
  reporter.set_config("full_scale", config.full_scale);
  reporter.set_config("threads", parallel::thread_count());
  reporter.set_config("deadline_ms", config.deadline_ms);
  reporter.set_config("checkpoint", config.checkpoint);
  reporter.set_config("snapshot", config.snapshot);
  reporter.set_config("report", config.report);
  reporter.set_config("trace", config.trace);
  reporter.set_config(
      "telemetry", config.telemetry.enabled()
                       ? config.telemetry.jsonl_path + ":" +
                             std::to_string(config.telemetry.period_ms)
                       : std::string{});
  reporter.set_config("diag", config.diag);
  reporter.set_config("alloc_stats", config.alloc_stats);
  obs::TelemetryExporter::instance().start(config.telemetry);
  applied() = config;
}

const RunConfig& applied_config() { return applied(); }

int guarded_main(const std::function<int()>& body,
                 const std::function<void(RunConfig&)>& configure) {
  install_signal_handlers();
  try {
    RunConfig config = run_config_from_environment();
    if (configure) configure(config);
    apply(config);
    return body();
  } catch (const UsageError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 64;  // EX_USAGE
  } catch (const CancelledError& error) {
    // Drained cleanly: the checkpoint, if armed, holds the completed work,
    // and the run report at exit names the interruption.
    return interrupted_exit(error.what());
  } catch (const IoError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 65;  // EX_DATAERR: unreadable or malformed input
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 65;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace sntrust::exec
