// Tests for the run's one config: every SNTRUST_* knob is read by one rule
// (a malformed value is a usage error naming the variable), an unknown name
// warns and changes nothing, apply arms each subsystem, the report records
// the same effective config whether a flag or the environment set a knob,
// and guarded_main maps how a body ends to one exit code.
#include "exec/run_config.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "graph/io.hpp"
#include "obs/diag.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/json.hpp"

namespace sntrust {
namespace {

/// parse_run_config over "NAME=value" entries; the warnings land in
/// `warnings` when given.
exec::RunConfig parse(std::initializer_list<std::string> entries,
                      std::string* warnings = nullptr) {
  std::vector<const char*> block;
  for (const std::string& entry : entries) block.push_back(entry.c_str());
  block.push_back(nullptr);
  std::ostringstream out;
  exec::RunConfig config = exec::parse_run_config(block.data(), out);
  if (warnings != nullptr) *warnings = out.str();
  return config;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Re-applies the config the test started with (the test binary's main
/// applied the environment's) and leaves the tracer as it found it.
struct AppliedConfigGuard {
  const exec::RunConfig before = exec::applied_config();
  const bool tracing = obs::Tracer::instance().enabled();
  ~AppliedConfigGuard() {
    exec::apply(before);
    if (!tracing) obs::Tracer::instance().disable();
    exec::reset_process_cancel();
  }
};

struct KnobCase {
  const char* name;
  const char* valid;
  std::function<bool(const exec::RunConfig&)> holds_valid;
  std::vector<const char*> malformed;
};

TEST(RunConfig, EachKnobParsesByOneRule) {
  const std::vector<const char*> booleans = {"True", "yes", "2"};
  const std::vector<KnobCase> cases = {
      {"SNTRUST_SCALE", "0.1",
       [](const exec::RunConfig& c) { return c.scale == 0.1; },
       {"0.1x", "0.001", "101", "nan"}},
      {"SNTRUST_FULL_SCALE", "1",
       [](const exec::RunConfig& c) { return c.full_scale; }, booleans},
      {"SNTRUST_THREADS", "4",
       [](const exec::RunConfig& c) { return c.threads == 4; },
       {"2x", "0", "-1", "257"}},
      {"SNTRUST_DEADLINE_MS", "5000",
       [](const exec::RunConfig& c) { return c.deadline_ms == 5000; },
       {"5s", "0"}},
      {"SNTRUST_CHECKPOINT", "ck.json",
       [](const exec::RunConfig& c) { return c.checkpoint == "ck.json"; },
       {}},
      {"SNTRUST_SNAPSHOT", "snapshots",
       [](const exec::RunConfig& c) { return c.snapshot == "snapshots"; },
       {}},
      {"SNTRUST_REPORT", "run.json",
       [](const exec::RunConfig& c) { return c.report == "run.json"; }, {}},
      {"SNTRUST_TRACE", "trace.json",
       [](const exec::RunConfig& c) { return c.trace == "trace.json"; }, {}},
      {"SNTRUST_TELEMETRY", "t.jsonl:500",
       [](const exec::RunConfig& c) {
         return c.telemetry.jsonl_path == "t.jsonl" &&
                c.telemetry.period_ms == 500;
       },
       {"t.jsonl:99999999999999999999", "t.jsonl:5s", "t.jsonl:1e3"}},
      {"SNTRUST_DIAG", "1", [](const exec::RunConfig& c) { return c.diag; },
       booleans},
      {"SNTRUST_ALLOC_STATS", "1",
       [](const exec::RunConfig& c) { return c.alloc_stats; }, booleans},
  };
  ASSERT_EQ(cases.size(), 11u);  // one case per knob
  for (const KnobCase& knob : cases) {
    SCOPED_TRACE(knob.name);
    const std::string name = knob.name;
    const exec::RunConfig set = parse({name + "=" + knob.valid});
    EXPECT_TRUE(knob.holds_valid(set));
    EXPECT_NE(set, exec::RunConfig{});
    EXPECT_EQ(parse({name + "="}), exec::RunConfig{});  // empty is unset
    for (const char* bad : knob.malformed) {
      try {
        parse({name + "=" + bad});
        ADD_FAILURE() << "accepted " << bad;
      } catch (const exec::UsageError& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(name), std::string::npos) << message;
        EXPECT_NE(message.find(bad), std::string::npos) << message;
      }
    }
  }
}

TEST(RunConfig, TelemetryPeriodIsAWholeNumberOrPartOfThePath) {
  // After the last colon, text that starts with a digit and holds no '/' is
  // a period: a mistyped one is a usage error, not a file named after it.
  EXPECT_THROW(parse({"SNTRUST_TELEMETRY=t.jsonl:5s"}), exec::UsageError);
  EXPECT_EQ(exec::guarded_main([] { return 0; },
                               [](exec::RunConfig& config) {
                                 exec::set_knob(config, "SNTRUST_TELEMETRY",
                                                "t.jsonl:5s", "--telemetry");
                               }),
            64);
  // A '/' after the colon, or a first character that is no digit, keeps
  // the colon in the path.
  const exec::RunConfig directory = parse({"SNTRUST_TELEMETRY=run:1/t.jsonl"});
  EXPECT_EQ(directory.telemetry.jsonl_path, "run:1/t.jsonl");
  EXPECT_EQ(directory.telemetry.period_ms, obs::kTelemetryDefaultPeriodMs);
  const exec::RunConfig named = parse({"SNTRUST_TELEMETRY=run:t.jsonl"});
  EXPECT_EQ(named.telemetry.jsonl_path, "run:t.jsonl");
  const exec::RunConfig timed = parse({"SNTRUST_TELEMETRY=run:1/t.jsonl:20"});
  EXPECT_EQ(timed.telemetry.jsonl_path, "run:1/t.jsonl");
  EXPECT_EQ(timed.telemetry.period_ms, 20u);
}

TEST(RunConfig, UnknownNameWarnsOnceAndChangesNothing) {
  std::string warnings;
  const exec::RunConfig config =
      parse({"SNTRUST_THREAD=1", "HOME=/home/user"}, &warnings);
  EXPECT_EQ(config, exec::RunConfig{});
  EXPECT_EQ(warnings, "warning: ignoring unknown SNTRUST_THREAD\n");
}

TEST(RunConfig, ApplyArmsEachSubsystem) {
  AppliedConfigGuard guard;
  const std::string checkpoint = temp_path("sntrust_run_config_ck.json");
  const exec::RunConfig config = parse(
      {"SNTRUST_THREADS=3", "SNTRUST_DIAG=1", "SNTRUST_ALLOC_STATS=1",
       "SNTRUST_DEADLINE_MS=600000", "SNTRUST_CHECKPOINT=" + checkpoint});
  const auto before = std::chrono::steady_clock::now();
  exec::apply(config);
  const auto after = std::chrono::steady_clock::now();
  EXPECT_EQ(parallel::thread_count(), 3u);
  EXPECT_TRUE(obs::diag_enabled());
  EXPECT_TRUE(obs::alloc_stats_enabled());
  const exec::Deadline deadline = exec::process_deadline();
  ASSERT_TRUE(deadline.armed());
  EXPECT_GE(deadline.when(), before + std::chrono::minutes(10));
  EXPECT_LE(deadline.when(), after + std::chrono::minutes(10));
  EXPECT_EQ(exec::CheckpointStore::instance().path(), checkpoint);
  EXPECT_EQ(exec::applied_config(), config);

  exec::apply(exec::RunConfig{});
  EXPECT_FALSE(obs::diag_enabled());
  EXPECT_FALSE(obs::alloc_stats_enabled());
  EXPECT_FALSE(exec::process_deadline().armed());
  EXPECT_EQ(exec::CheckpointStore::instance().path(), "");
}

TEST(RunConfig, ReportRecordsTheSameConfigFromFlagsOrEnvironment) {
  AppliedConfigGuard guard;
  const std::string report = temp_path("sntrust_run_config_report.json");
  const std::string trace = temp_path("sntrust_run_config_trace.json");
  const auto config_section = [](const exec::RunConfig& config) {
    exec::apply(config);
    return *obs::RunReporter::instance().build().find("config");
  };
  const json::Value from_environment = config_section(parse(
      {"SNTRUST_SCALE=0.5", "SNTRUST_THREADS=3", "SNTRUST_DEADLINE_MS=600000",
       "SNTRUST_CHECKPOINT=ck.json", "SNTRUST_REPORT=" + report,
       "SNTRUST_TRACE=" + trace, "SNTRUST_DIAG=1"}));
  // sntrust_cli's flags set the same knobs through set_knob.
  exec::RunConfig flags;
  exec::set_knob(flags, "SNTRUST_SCALE", "0.5", "SNTRUST_SCALE");
  exec::set_knob(flags, "SNTRUST_THREADS", "3", "--threads");
  exec::set_knob(flags, "SNTRUST_DEADLINE_MS", "600000", "--deadline");
  exec::set_knob(flags, "SNTRUST_CHECKPOINT", "ck.json", "--checkpoint");
  exec::set_knob(flags, "SNTRUST_REPORT", report, "--report");
  exec::set_knob(flags, "SNTRUST_TRACE", trace, "--trace");
  exec::set_knob(flags, "SNTRUST_DIAG", "1", "--diag");
  const json::Value from_flags = config_section(flags);

  for (const char* key :
       {"scale", "full_scale", "threads", "deadline_ms", "checkpoint",
        "snapshot", "report", "trace", "telemetry", "diag", "alloc_stats"}) {
    SCOPED_TRACE(key);
    ASSERT_NE(from_environment.find(key), nullptr);
    ASSERT_NE(from_flags.find(key), nullptr);
    EXPECT_EQ(from_environment.find(key)->dump(), from_flags.find(key)->dump());
  }
  EXPECT_DOUBLE_EQ(from_flags.find("scale")->as_number(), 0.5);
  EXPECT_EQ(from_flags.find("threads")->as_int(), 3);
  EXPECT_EQ(from_flags.find("deadline_ms")->as_int(), 600000);
  EXPECT_EQ(from_flags.find("checkpoint")->as_string(), "ck.json");
  EXPECT_EQ(from_flags.find("report")->as_string(), report);
  EXPECT_TRUE(from_flags.find("diag")->as_bool());
  EXPECT_EQ(from_flags.find("telemetry")->as_string(), "");
  EXPECT_TRUE(from_flags.find("compiler")->is_string());
  EXPECT_TRUE(from_flags.find("build_flags")->is_string());
  EXPECT_EQ(from_flags.find("env"), nullptr);
}

TEST(RunConfig, GuardedMainMapsHowTheBodyEnds) {
  AppliedConfigGuard guard;
  const auto ends_with = [](auto error) {
    return exec::guarded_main([&]() -> int { throw error; });
  };
  EXPECT_EQ(exec::guarded_main([] { return 0; }), 0);
  EXPECT_EQ(exec::guarded_main([] { return 3; }), 3);
  EXPECT_EQ(ends_with(exec::UsageError("bad flag")), 64);
  EXPECT_EQ(ends_with(exec::CancelledError("stopped")), 75);
  EXPECT_EQ(ends_with(IoError("bad file")), 65);
  EXPECT_EQ(ends_with(std::invalid_argument("bad input")), 65);
  EXPECT_EQ(ends_with(std::runtime_error("internal")), 1);
  // A malformed flag is a config error: the body never runs.
  bool ran = false;
  EXPECT_EQ(exec::guarded_main(
                [&] {
                  ran = true;
                  return 0;
                },
                [](exec::RunConfig& config) {
                  exec::set_knob(config, "SNTRUST_THREADS", "2x", "--threads");
                }),
            64);
  EXPECT_FALSE(ran);
}

TEST(RunConfig, GuardedMainWritesTheReportBeforeItReturns) {
  AppliedConfigGuard guard;
  const auto report_at = [](const std::string& path) {
    return [path](exec::RunConfig& config) {
      exec::set_knob(config, "SNTRUST_REPORT", path, "--report");
    };
  };
  const std::string report = temp_path("sntrust_run_config_exit_report.json");
  std::filesystem::remove(report);
  EXPECT_EQ(exec::guarded_main([] { return 0; }, report_at(report)), 0);
  ASSERT_TRUE(std::filesystem::exists(report));
  std::ifstream in{report};
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  const json::Value parsed = json::Value::parse(text);
  EXPECT_EQ(parsed.find("config")->find("report")->as_string(), report);
  // Written once: the exit hook has nothing left to write.
  EXPECT_EQ(obs::RunReporter::instance().export_path(), "");
  std::filesystem::remove(report);

  // A report that cannot be written fails a clean run with EX_IOERR (74),
  // and leaves the code of a run that already failed.
  const std::filesystem::path missing =
      std::filesystem::temp_directory_path() / "sntrust_run_config_no_dir";
  std::filesystem::remove_all(missing);
  const std::string unwritable = (missing / "r.json").string();
  EXPECT_EQ(exec::guarded_main([] { return 0; }, report_at(unwritable)), 74);
  EXPECT_EQ(exec::guarded_main([] { return 3; }, report_at(unwritable)), 3);
  EXPECT_EQ(exec::guarded_main(
                []() -> int { throw exec::CancelledError("stopped"); },
                report_at(unwritable)),
            75);
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(RunConfig, GuardedMainWritesTheTraceBeforeItReturns) {
  AppliedConfigGuard guard;
  const auto trace_at = [](const std::string& path) {
    return [path](exec::RunConfig& config) {
      exec::set_knob(config, "SNTRUST_TRACE", path, "--trace");
    };
  };
  const auto traced_work = [] {
    const obs::Span span{"run_config.traced_work"};
    return 0;
  };
  const std::string trace = temp_path("sntrust_run_config_exit_trace.json");
  std::filesystem::remove(trace);
  EXPECT_EQ(exec::guarded_main(traced_work, trace_at(trace)), 0);
  ASSERT_TRUE(std::filesystem::exists(trace));
  std::ifstream in{trace};
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  EXPECT_NE(text.find("run_config.traced_work"), std::string::npos);
  const json::Value parsed = json::Value::parse(text);
  EXPECT_FALSE(parsed.find("traceEvents")->as_array().empty());
  // Written once: the exit hook has nothing left to write.
  EXPECT_EQ(obs::Tracer::instance().export_path(), "");
  std::filesystem::remove(trace);

  // A trace that cannot be written fails a clean run with EX_IOERR (74),
  // and leaves the code of a run that already failed.
  const std::filesystem::path missing =
      std::filesystem::temp_directory_path() / "sntrust_run_config_no_dir";
  std::filesystem::remove_all(missing);
  const std::string unwritable = (missing / "t.json").string();
  EXPECT_EQ(exec::guarded_main(traced_work, trace_at(unwritable)), 74);
  EXPECT_EQ(exec::guarded_main([] { return 3; }, trace_at(unwritable)), 3);
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(RunConfig, UnopenableTelemetrySinkExits74BeforeAnyWork) {
  AppliedConfigGuard guard;
  const std::filesystem::path missing =
      std::filesystem::temp_directory_path() / "sntrust_run_config_no_dir";
  std::filesystem::remove_all(missing);
  const std::string unwritable = (missing / "t.jsonl").string();
  bool ran = false;
  EXPECT_EQ(exec::guarded_main(
                [&] {
                  ran = true;
                  return 0;
                },
                [&](exec::RunConfig& config) {
                  exec::set_knob(config, "SNTRUST_TELEMETRY", unwritable,
                                 "--telemetry");
                }),
            74);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(std::filesystem::exists(missing));
}

}  // namespace
}  // namespace sntrust
