// Tests for the exec fault-tolerance layer: cooperative cancellation,
// deterministic fault injection, checkpoint/resume, and the sweep harness —
// including the acceptance property that an interrupted measurement resumed
// from its checkpoint is bitwise identical to an uninterrupted run at any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fault.hpp"
#include "exec/sweep.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/watchdog.hpp"
#include "parallel/parallel.hpp"
#include "sybil/gatekeeper.hpp"
#include "test_graphs.hpp"
#include "util/json.hpp"

namespace sntrust {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Restores process-global exec state (fault plan, cancellation, checkpoint
/// path) no matter how a test exits.
struct ExecStateGuard {
  ~ExecStateGuard() {
    exec::clear_fault_plan();
    exec::reset_process_cancel();
    exec::set_process_deadline(exec::Deadline{});
    exec::set_max_failed_frac(-1.0);
    exec::CheckpointStore::instance().set_path("");
    obs::StallWatchdog::instance().stop();
  }
};

TEST(ExecCancel, DefaultDeadlineNeverExpires) {
  const exec::Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_GT(none.remaining_ms(), 1'000'000'000LL);
}

TEST(ExecCancel, ExpiredDeadlineReports) {
  const exec::Deadline past = exec::Deadline::after_ms(0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_ms(), 0);
}

TEST(ExecCancel, CancelSourceFlowsToToken) {
  exec::CancelSource source;
  const exec::CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "cancelled");
  EXPECT_THROW(token.check(), exec::CancelledError);
}

TEST(ExecCancel, TokenDeadlineCancels) {
  const exec::CancelToken token =
      exec::CancelToken{}.with_deadline(exec::Deadline::after_ms(0));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "deadline exceeded");
}

TEST(ExecCancel, ProcessCancelRequestAndReset) {
  ExecStateGuard guard;
  EXPECT_FALSE(exec::process_cancel_requested());
  exec::request_process_cancel("test stop");
  EXPECT_TRUE(exec::process_cancel_requested());
  EXPECT_EQ(exec::process_cancel_reason(), "test stop");
  EXPECT_TRUE(exec::process_token().cancelled());
  exec::reset_process_cancel();
  EXPECT_FALSE(exec::process_cancel_requested());
  EXPECT_EQ(exec::process_cancel_reason(), "");
}

TEST(ExecCancel, PoolStopsAtChunkBoundaries) {
  ExecStateGuard guard;
  exec::request_process_cancel("chunk boundary test");
  std::atomic<std::uint64_t> ran{0};
  EXPECT_THROW(parallel::parallel_for(
                   0, 128,
                   [&](std::size_t, std::uint32_t) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                   }),
               exec::CancelledError);
  // Every chunk checks before running its first item, so nothing executes.
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecFault, ParsesWellFormedSpecs) {
  const auto plan = exec::parse_fault_plan("markov:7:0.5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->site, "markov");
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->prob, 0.5);
  EXPECT_EQ(plan->action, exec::FaultPlan::Action::kThrow);

  const auto sigterm = exec::parse_fault_plan("io:123:0.25:sigterm");
  ASSERT_TRUE(sigterm.has_value());
  EXPECT_EQ(sigterm->action, exec::FaultPlan::Action::kSigterm);
}

TEST(ExecFault, ParsesSleepActionWithOptionalDuration) {
  const auto plain = exec::parse_fault_plan("pool:1:1.0:sleep");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->action, exec::FaultPlan::Action::kSleep);
  EXPECT_EQ(plain->sleep_ms, 250u);  // documented default

  const auto timed = exec::parse_fault_plan("pool:1:1.0:sleep400");
  ASSERT_TRUE(timed.has_value());
  EXPECT_EQ(timed->action, exec::FaultPlan::Action::kSleep);
  EXPECT_EQ(timed->sleep_ms, 400u);

  EXPECT_FALSE(exec::parse_fault_plan("pool:1:1.0:sleepx").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("pool:1:1.0:sleep4x").has_value());
}

TEST(ExecFault, SleepActionBlocksWithoutFailing) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "unit.sleep";
  plan.seed = 1;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSleep;
  plan.sleep_ms = 60;
  exec::set_fault_plan(plan);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(exec::fault_point("unit.sleep", 0));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // A forced stall, not a failure: the call blocks, then returns normally.
  EXPECT_GE(elapsed.count(), 50);
}

TEST(ExecFault, RejectsMalformedSpecs) {
  EXPECT_FALSE(exec::parse_fault_plan("").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7").has_value());
  EXPECT_FALSE(exec::parse_fault_plan(":7:0.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:x:0.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:nope").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:1.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:-0.1").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:0.5:explode").has_value());
}

TEST(ExecFault, FiringIsDeterministicPerIndex) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "test.site";
  plan.seed = 42;
  plan.prob = 0.3;
  exec::set_fault_plan(plan);

  const auto fired_indices = [] {
    std::vector<std::uint64_t> fired;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      try {
        exec::fault_point("test.site", i);
      } catch (const exec::InjectedFault&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const std::vector<std::uint64_t> first = fired_indices();
  const std::vector<std::uint64_t> second = fired_indices();
  EXPECT_EQ(first, second);
  // Bernoulli(0.3) over 1000 trials: generous envelope, deterministic seed.
  EXPECT_GT(first.size(), 200u);
  EXPECT_LT(first.size(), 400u);
}

TEST(ExecFault, OnlyMatchingSiteFires) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "only.this";
  plan.seed = 1;
  plan.prob = 1.0;
  exec::set_fault_plan(plan);
  EXPECT_NO_THROW(exec::fault_point("other.site", 0));
  EXPECT_THROW(exec::fault_point("only.this", 0), exec::InjectedFault);
}

TEST(ExecCheckpoint, Crc32MatchesReference) {
  EXPECT_EQ(exec::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(exec::crc32(""), 0u);
}

TEST(ExecCheckpoint, FingerprintDependsOnOrderAndContent) {
  const std::uint64_t a = exec::fingerprint({1, 2, 3});
  EXPECT_EQ(a, exec::fingerprint({1, 2, 3}));
  EXPECT_NE(a, exec::fingerprint({3, 2, 1}));
  EXPECT_NE(a, exec::fingerprint({1, 2}));
}

TEST(ExecCheckpoint, SaveRestoreRoundTripsThroughDisk) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_roundtrip.json");
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);

  std::vector<std::string> payloads{"[1,2]", "", "[0.25,3]", ""};
  store.save("unit", 0xabcdULL, 4, payloads);

  // Re-entering the path drops in-memory state, forcing a reload from disk.
  store.set_path(path);
  std::vector<std::string> restored(4);
  EXPECT_EQ(store.restore("unit", 0xabcdULL, 4, restored), 2u);
  EXPECT_EQ(restored[0], "[1,2]");
  EXPECT_EQ(restored[1], "");
  EXPECT_EQ(restored[2], "[0.25,3]");

  // Fingerprint or item-count mismatch: treated as a different sweep.
  std::vector<std::string> other(4);
  EXPECT_EQ(store.restore("unit", 0x9999ULL, 4, other), 0u);
  EXPECT_EQ(store.restore("unit", 0xabcdULL, 5, other), 0u);
  std::remove(path.c_str());
}

TEST(ExecCheckpoint, CorruptOrMismatchedFilesStartFresh) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_corrupt.json");
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  std::vector<std::string> restored(2);

  const auto expects_fresh = [&](const std::string& contents) {
    std::ofstream out{path};
    out << contents;
    out.close();
    store.set_path(path);
    restored.assign(2, {});
    EXPECT_EQ(store.restore("unit", 1, 2, restored), 0u);
  };

  expects_fresh("not json at all {{{");
  expects_fresh("{\"schema_version\":1,\"sweeps\":{");  // truncated
  expects_fresh("{\"schema_version\":99,\"sweeps\":{},\"crc32\":\"0\"}");
  expects_fresh(  // valid shape, wrong CRC: corrupt payload
      "{\"schema_version\":1,\"sweeps\":{\"unit:0000000000000001\":"
      "{\"fingerprint\":\"0000000000000001\",\"items\":2,"
      "\"completed\":{\"0\":[1]}}},\"crc32\":\"00000000\"}");
  std::remove(path.c_str());
}

TEST(ExecSweep, ComputesEveryPayload) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep";
  const exec::SweepResult result = exec::run_sweep(
      8, options, [](std::size_t i, std::uint32_t) {
        return json::Value::integer(static_cast<std::int64_t>(i * i)).dump();
      });
  ASSERT_EQ(result.payloads.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(result.payloads[i], std::to_string(i * i));
  EXPECT_EQ(result.computed, 8u);
  EXPECT_EQ(result.restored, 0u);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ExecSweep, FreeWorkersTakeTheRemainingSources) {
  ExecStateGuard guard;
  parallel::ScopedThreadCount two{2};
  exec::SweepOptions options;
  options.kind = "unit_sweep_dynamic";
  // Source 0 waits until the other seven finished. Split into two fixed
  // halves, sources 1-3 would queue behind it and it would time out.
  std::atomic<int> others{0};
  const exec::SweepResult result = exec::run_sweep(
      8, options, [&](std::size_t i, std::uint32_t) {
        if (i == 0) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (others.load() < 7 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          others.fetch_add(1);
        }
        return json::Value::integer(others.load()).dump();
      });
  EXPECT_EQ(result.payloads[0], "7");
  EXPECT_EQ(result.computed, 8u);
}

TEST(ExecSweep, StrictModeAbortsOnAnyFailure) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep_strict";
  options.max_failed_frac = 0.0;
  EXPECT_THROW(
      exec::run_sweep(8, options,
                      [](std::size_t i, std::uint32_t) -> std::string {
                        if (i == 3) throw std::runtime_error("boom");
                        return "[]";
                      }),
      exec::PartialFailureError);
}

TEST(ExecSweep, DegradedModeRecordsAndSkipsFailures) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep_degraded";
  options.max_failed_frac = 0.5;
  const exec::SweepResult result = exec::run_sweep(
      8, options, [](std::size_t i, std::uint32_t) -> std::string {
        if (i == 2 || i == 5) throw std::runtime_error("boom " +
                                                       std::to_string(i));
        return "[]";
      });
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].index, 2u);
  EXPECT_EQ(result.failures[0].phase, "unit_sweep_degraded");
  EXPECT_EQ(result.failures[0].reason, "boom 2");
  EXPECT_EQ(result.failures[1].index, 5u);
  EXPECT_TRUE(result.payloads[2].empty());
  EXPECT_TRUE(result.payloads[5].empty());
  EXPECT_EQ(result.computed, 6u);
}

TEST(ExecSweep, CancelledTokenDrainsAndThrows) {
  ExecStateGuard guard;
  exec::CancelSource source;
  source.cancel();
  exec::SweepOptions options;
  options.kind = "unit_sweep_cancel";
  options.token = source.token();
  std::atomic<std::uint64_t> ran{0};
  EXPECT_THROW(exec::run_sweep(8, options,
                               [&](std::size_t, std::uint32_t) {
                                 ran.fetch_add(1);
                                 return std::string("[]");
                               }),
               exec::CancelledError);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecSweep, RestoredSourcesSkipCompute) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_restore.json");
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);

  exec::SweepOptions options;
  options.kind = "unit_sweep_restore";
  options.fingerprint = 7;
  std::atomic<std::uint64_t> computed{0};
  const auto compute = [&](std::size_t i, std::uint32_t) {
    computed.fetch_add(1);
    return json::Value::integer(static_cast<std::int64_t>(100 + i)).dump();
  };
  const exec::SweepResult first = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 6u);

  store.set_path(path);  // force reload from disk
  computed.store(0);
  const exec::SweepResult second = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 0u);
  EXPECT_EQ(second.restored, 6u);
  EXPECT_EQ(second.payloads, first.payloads);
  std::remove(path.c_str());
}

TEST(ExecSweep, ForcedStallFiresWatchdogAndCancelsDraining) {
  ExecStateGuard guard;

  // Force the stall: every source wedges for 400 ms inside the injected
  // sleep — far past the 50 ms no-progress threshold.
  exec::FaultPlan plan;
  plan.site = "unit.stall";
  plan.seed = 1;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSleep;
  plan.sleep_ms = 400;
  exec::set_fault_plan(plan);

  obs::WatchdogOptions watchdog;
  watchdog.stall_ms = 50;
  watchdog.check_period_ms = 10;
  watchdog.cancel = true;  // escalate the stall to cooperative cancel
  obs::StallWatchdog::instance().configure(watchdog);

  const std::uint64_t stalls_before =
      obs::StallWatchdog::instance().stalls_detected();
  obs::Counter& stalled_events =
      obs::Metrics::instance().counter("exec.stalled");
  const std::uint64_t events_before = stalled_events.value();

  exec::SweepOptions options;
  options.kind = "unit_sweep_stall";
  // run_sweep opens the watchdog activity scope itself; the wedged workers
  // never heartbeat, the watchdog fires, requests process cancellation, and
  // the sweep drains at the next chunk boundary into CancelledError — the
  // same draining shutdown an operator sees as exit code 75.
  EXPECT_THROW(exec::run_sweep(64, options,
                               [](std::size_t i, std::uint32_t) {
                                 exec::fault_point("unit.stall", i);
                                 return std::string("[]");
                               }),
               exec::CancelledError);

  EXPECT_GE(obs::StallWatchdog::instance().stalls_detected() - stalls_before,
            1u);
  EXPECT_GE(stalled_events.value() - events_before, 1u);
  EXPECT_TRUE(exec::process_cancel_requested());
  EXPECT_NE(exec::process_cancel_reason().find("stalled"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Block form: sources grouped into lane blocks, semantics still per source.

using Blocks = std::vector<std::vector<std::size_t>>;

/// compute_block that records the blocks it sees and returns each index
/// as its payload.
auto recording_block(Blocks& seen) {
  return [&seen](const std::vector<std::size_t>& indices) {
    seen.push_back(indices);
    std::vector<std::string> payloads;
    for (const std::size_t i : indices)
      payloads.push_back(json::Value::integer(static_cast<std::int64_t>(i))
                             .dump());
    return payloads;
  };
}

TEST(ExecSweepBlocks, BalancedBlocksInIndexOrder) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_blocks";
  Blocks seen;
  const exec::SweepResult result =
      exec::run_sweep_blocks(23, 10, options, recording_block(seen));
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].size(), 7u);
  EXPECT_EQ(seen[1].size(), 8u);
  EXPECT_EQ(seen[2].size(), 8u);
  std::size_t next = 0;
  for (const std::vector<std::size_t>& block : seen)
    for (const std::size_t i : block) EXPECT_EQ(i, next++);
  for (std::size_t i = 0; i < 23; ++i)
    EXPECT_EQ(result.payloads[i], std::to_string(i));
  EXPECT_EQ(result.computed, 23u);
}

TEST(ExecSweepBlocks, FaultedSourcesFailAloneAndLeaveTheirBlock) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "unit.blocks";
  plan.seed = 4;
  plan.prob = 0.4;
  exec::set_fault_plan(plan);
  exec::SweepOptions options;
  options.kind = "unit_blocks_faults";
  options.fault_site = "unit.blocks";
  options.max_failed_frac = 1.0;

  // The per-source harness under the same plan names the same failures.
  const exec::SweepResult per_source = exec::run_sweep(
      23, options, [](std::size_t i, std::uint32_t) {
        return json::Value::integer(static_cast<std::int64_t>(i)).dump();
      });
  Blocks seen;
  const exec::SweepResult blocked =
      exec::run_sweep_blocks(23, 10, options, recording_block(seen));
  ASSERT_FALSE(blocked.failures.empty());
  ASSERT_EQ(blocked.failures.size(), per_source.failures.size());
  for (std::size_t f = 0; f < blocked.failures.size(); ++f) {
    EXPECT_EQ(blocked.failures[f].index, per_source.failures[f].index);
    EXPECT_EQ(blocked.failures[f].phase, "unit_blocks_faults");
  }
  EXPECT_EQ(blocked.payloads, per_source.payloads);
  std::size_t lanes = 0;
  for (const std::vector<std::size_t>& block : seen)
    for (const std::size_t i : block) {
      EXPECT_FALSE(blocked.payloads[i].empty()) << "faulted " << i;
      ++lanes;
    }
  EXPECT_EQ(lanes, blocked.computed);
  EXPECT_EQ(lanes + blocked.failures.size(), 23u);
}

TEST(ExecSweepBlocks, ThrowingBlockFailsEachOfItsSources) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_blocks_throw";
  options.max_failed_frac = 1.0;
  const exec::SweepResult result = exec::run_sweep_blocks(
      12, 4, options, [](const std::vector<std::size_t>& indices) {
        if (indices.front() == 4) throw std::runtime_error("block boom");
        return std::vector<std::string>(indices.size(), "[]");
      });
  ASSERT_EQ(result.failures.size(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_EQ(result.failures[f].index, 4 + f);
    EXPECT_EQ(result.failures[f].reason, "block boom");
  }
  EXPECT_EQ(result.computed, 8u);
}

TEST(ExecSweepBlocks, EachSourceIsChargedItsShareOfTheBlock) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_blocks_share";
  options.max_failed_frac = 1.0;
  const auto sleepy = [](const std::vector<std::size_t>& indices) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return std::vector<std::string>(indices.size(), "[]");
  };
  obs::QuantileHistogram& latency =
      obs::metrics_quantile("sweep.unit_blocks_share.source_ms");
  const std::uint64_t samples_before = latency.snapshot().count;

  // One sample per source, each a quarter of the 80 ms block.
  setenv("SNTRUST_SOURCE_BUDGET_MS", "1000", 1);
  const exec::SweepResult within =
      exec::run_sweep_blocks(4, 4, options, sleepy);
  EXPECT_TRUE(within.failures.empty());
  const obs::QuantileSnapshot shares = latency.snapshot();
  EXPECT_EQ(shares.count - samples_before, 4u);
  EXPECT_GE(shares.min, 19.0);

  // A budget below the share fails every source of the block.
  setenv("SNTRUST_SOURCE_BUDGET_MS", "10", 1);
  const exec::SweepResult over =
      exec::run_sweep_blocks(4, 4, options, sleepy);
  unsetenv("SNTRUST_SOURCE_BUDGET_MS");
  ASSERT_EQ(over.failures.size(), 4u);
  EXPECT_NE(over.failures[0].reason.find("source budget exceeded"),
            std::string::npos);
  EXPECT_EQ(over.computed, 0u);
}

TEST(ExecSweepBlocks, RestoredSourcesNeverJoinABlock) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_blocks_restore.json");
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);
  exec::SweepOptions options;
  options.kind = "unit_blocks_restore";
  options.fingerprint = 11;
  options.max_failed_frac = 1.0;
  // First pass: source 3's block throws, so only it is left to recompute.
  const exec::SweepResult first = exec::run_sweep_blocks(
      6, 1, options, [](const std::vector<std::size_t>& indices) {
        if (indices.front() == 3) throw std::runtime_error("boom");
        return std::vector<std::string>(1, "[]");
      });
  EXPECT_EQ(first.computed, 5u);

  store.set_path(path);  // reload from disk
  Blocks seen;
  const exec::SweepResult second =
      exec::run_sweep_blocks(6, 10, options, recording_block(seen));
  EXPECT_EQ(second.restored, 5u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], std::vector<std::size_t>{3});
  std::remove(path.c_str());
}

TEST(ExecSweepBlocks, CancellationStopsBeforeTheNextBlock) {
  ExecStateGuard guard;
  exec::CancelSource source;
  exec::SweepOptions options;
  options.kind = "unit_blocks_cancel";
  options.token = source.token();
  Blocks seen;
  const auto record = recording_block(seen);
  EXPECT_THROW(exec::run_sweep_blocks(
                   30, 10, options,
                   [&](const std::vector<std::size_t>& indices) {
                     source.cancel();  // lands after the first block
                     return record(indices);
                   }),
               exec::CancelledError);
  EXPECT_EQ(seen.size(), 1u);

  // An injected SIGTERM at a block's fault points keeps that block from
  // starting at all.
  exec::reset_process_cancel();
  exec::FaultPlan plan;
  plan.site = "unit.blocks.sigterm";
  plan.seed = 1;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSigterm;
  exec::set_fault_plan(plan);
  exec::SweepOptions signalled;
  signalled.kind = "unit_blocks_sigterm";
  signalled.fault_site = "unit.blocks.sigterm";
  signalled.token = exec::process_token();
  seen.clear();
  EXPECT_THROW(exec::run_sweep_blocks(30, 10, signalled, recording_block(seen)),
               exec::CancelledError);
  EXPECT_TRUE(seen.empty());
}

TEST(ExecReport, BuildEmitsExecSectionAfterFailures) {
  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.record_failure("unit_phase", 7, "unit reason");
  const json::Value report = reporter.build();
  const json::Value* exec_section = report.find("exec");
  ASSERT_NE(exec_section, nullptr);
  const json::Value* partial = exec_section->find("partial");
  ASSERT_NE(partial, nullptr);
  EXPECT_TRUE(partial->as_bool());
  const json::Value* failures = exec_section->find("failures");
  ASSERT_NE(failures, nullptr);
  bool found = false;
  for (const json::Value& row : failures->as_array()) {
    if (row.find("phase")->as_string() == "unit_phase" &&
        row.find("index")->as_int() == 7 &&
        row.find("reason")->as_string() == "unit reason")
      found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Acceptance: interrupted sweeps resume bitwise identically.

Graph acceptance_graph() {
  return largest_component(barabasi_albert(300, 3, 5)).graph;
}

MixingOptions acceptance_mixing_options() {
  MixingOptions options;
  options.num_sources = 12;
  options.max_walk_length = 40;
  options.seed = 77;
  return options;
}

TEST(ExecResume, MixingSigtermMidRunThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  const MixingOptions options = acceptance_mixing_options();

  // Uninterrupted baseline, serial, no checkpoint.
  MixingCurves baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing(g, options);
  }

  const std::string path = temp_path("sntrust_exec_mixing_resume.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);

  // Interrupt: the first markov fault point raises SIGTERM; the sweep
  // drains, writes the checkpoint, and surfaces CancelledError.
  exec::FaultPlan plan;
  plan.site = "markov";
  plan.seed = 9;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSigterm;
  exec::set_fault_plan(plan);
  EXPECT_THROW(measure_mixing(g, options), exec::CancelledError);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Recover and resume at a different thread count: the restored payloads
  // plus the freshly computed remainder must equal the baseline exactly.
  exec::clear_fault_plan();
  exec::reset_process_cancel();
  exec::CheckpointStore::instance().set_path(path);  // reload from disk
  MixingCurves resumed;
  {
    parallel::ScopedThreadCount wide{4};
    resumed = measure_mixing(g, options);
  }
  EXPECT_EQ(resumed.sources, baseline.sources);
  EXPECT_EQ(resumed.tvd, baseline.tvd);
  std::remove(path.c_str());
}

TEST(ExecResume, MixingPartialFailureThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  const MixingOptions options = acceptance_mixing_options();

  MixingCurves baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing(g, options);
  }

  const std::string path = temp_path("sntrust_exec_mixing_degraded.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);

  // Degraded first pass: some sources fail (deterministically, by hash) and
  // are tolerated; the survivors land in the checkpoint.
  exec::FaultPlan plan;
  plan.site = "markov";
  plan.seed = 5;
  plan.prob = 0.4;
  exec::set_fault_plan(plan);
  exec::set_max_failed_frac(1.0);
  const MixingCurves degraded = measure_mixing(g, options);
  EXPECT_LT(degraded.sources.size(), baseline.sources.size());

  // Second pass heals: failed sources recompute cleanly, completed ones are
  // restored — the merged result must equal the baseline bitwise.
  exec::clear_fault_plan();
  exec::set_max_failed_frac(-1.0);
  exec::CheckpointStore::instance().set_path(path);
  MixingCurves healed;
  {
    parallel::ScopedThreadCount wide{3};
    healed = measure_mixing(g, options);
  }
  EXPECT_EQ(healed.sources, baseline.sources);
  EXPECT_EQ(healed.tvd, baseline.tvd);
  std::remove(path.c_str());
}

TEST(ExecResume, MixingFaultPlanFailsSameSourcesAtAnyThreadCount) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  MixingOptions options = acceptance_mixing_options();
  options.num_sources = 23;  // three lane blocks

  MixingCurves clean;
  {
    parallel::ScopedThreadCount serial{1};
    clean = measure_mixing(g, options);
  }

  exec::FaultPlan plan;
  plan.site = "markov";
  plan.seed = 5;
  plan.prob = 0.3;
  exec::set_fault_plan(plan);
  exec::set_max_failed_frac(1.0);
  obs::Counter& failures = obs::metrics_counter("exec.source_failures");
  const auto degraded = [&](std::uint32_t threads) {
    parallel::ScopedThreadCount scope{threads};
    const std::uint64_t before = failures.value();
    MixingCurves curves = measure_mixing(g, options);
    EXPECT_EQ(failures.value() - before,
              clean.sources.size() - curves.sources.size());
    return curves;
  };
  const MixingCurves serial = degraded(1);
  const MixingCurves wide = degraded(4);
  ASSERT_LT(serial.sources.size(), clean.sources.size());
  ASSERT_GT(serial.sources.size(), 0u);
  EXPECT_EQ(serial.sources, wide.sources);
  EXPECT_EQ(serial.tvd, wide.tvd);
  // Survivors keep exactly the curves of the unfaulted run.
  std::size_t s = 0;
  for (std::size_t c = 0; c < clean.sources.size() && s < serial.sources.size();
       ++c) {
    if (clean.sources[c] != serial.sources[s]) continue;
    EXPECT_EQ(clean.tvd[c], serial.tvd[s]) << "source " << serial.sources[s];
    ++s;
  }
  EXPECT_EQ(s, serial.sources.size());
}

TEST(ExecResume, GatekeeperResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 10;

  GateKeeperResult baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = run_gatekeeper(g, 0, params);
  }

  const std::string path = temp_path("sntrust_exec_gatekeeper_resume.json");
  obs::Counter& restored = obs::metrics_counter("exec.sources_restored");
  obs::Counter& completed = obs::metrics_counter("exec.sources_completed");
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("resumed at " + std::to_string(threads) + " threads");
    std::remove(path.c_str());
    exec::CheckpointStore::instance().set_path(path);

    // A serial pass whose first distributer raises SIGTERM: that
    // distributer still finishes and is checkpointed, the rest drain.
    exec::FaultPlan plan;
    plan.site = "sybil";
    plan.seed = 3;
    plan.prob = 1.0;
    plan.action = exec::FaultPlan::Action::kSigterm;
    exec::set_fault_plan(plan);
    {
      parallel::ScopedThreadCount serial{1};
      EXPECT_THROW(run_gatekeeper(g, 0, params), exec::CancelledError);
    }

    exec::clear_fault_plan();
    exec::reset_process_cancel();
    exec::CheckpointStore::instance().set_path(path);
    const std::uint64_t restored_before = restored.value();
    const std::uint64_t completed_before = completed.value();
    GateKeeperResult resumed;
    {
      parallel::ScopedThreadCount scope{threads};
      resumed = run_gatekeeper(g, 0, params);
    }
    EXPECT_GE(restored.value() - restored_before, 1u);
    EXPECT_GE(completed.value() - completed_before, 1u);
    EXPECT_EQ(resumed.distributers, baseline.distributers);
    EXPECT_EQ(resumed.admissions, baseline.admissions);
    EXPECT_EQ(resumed.threshold, baseline.threshold);
  }
  std::remove(path.c_str());
}

TEST(ExecResume, GatekeeperDropsSourcesFailedAfterTheyRan) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 12;
  exec::set_max_failed_frac(1.0);
  exec::FaultPlan plan;
  plan.site = "sybil";
  plan.seed = 9;
  plan.prob = 0.4;

  // A thrown fault fails its distributers before they run.
  exec::set_fault_plan(plan);
  const GateKeeperResult before = run_gatekeeper(g, 0, params);

  // The same distributers, now stalled past the source budget: each runs
  // and is tallied, then fails, so its tally must come off again.
  plan.action = exec::FaultPlan::Action::kSleep;
  plan.sleep_ms = 120;
  exec::set_fault_plan(plan);
  setenv("SNTRUST_SOURCE_BUDGET_MS", "50", 1);
  obs::Counter& failures = obs::metrics_counter("exec.source_failures");
  const std::uint64_t failures_before = failures.value();
  GateKeeperResult after;
  {
    parallel::ScopedThreadCount wide{4};
    after = run_gatekeeper(g, 0, params);
  }
  unsetenv("SNTRUST_SOURCE_BUDGET_MS");
  EXPECT_GT(failures.value() - failures_before, 0u);
  EXPECT_LT(failures.value() - failures_before, params.num_distributers);
  EXPECT_EQ(after.admissions, before.admissions);
}

TEST(ExecResume, GatekeeperCheckpointsIntegerBudgets) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 4;

  const std::string path = temp_path("sntrust_exec_gatekeeper_budgets.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);
  const GateKeeperResult fresh = run_gatekeeper(g, 0, params);

  // One entry, keyed by the budget kind, holding one integer per source.
  std::ifstream in(path);
  const json::Value doc = json::Value::parse(
      std::string(std::istreambuf_iterator<char>(in), {}));
  const json::Member& entry = doc.find("sweeps")->as_object().at(0);
  ASSERT_EQ(entry.first.rfind("gatekeeper_budget:", 0), 0u);
  const std::uint64_t fingerprint =
      std::stoull(entry.first.substr(entry.first.find(':') + 1), nullptr, 16);
  std::vector<std::string> budgets;
  for (const json::Member& source :
       entry.second.find("completed")->as_object()) {
    ASSERT_TRUE(source.second.is_integer()) << source.second.dump();
    budgets.push_back(source.second.dump());
  }
  ASSERT_EQ(budgets.size(), params.num_distributers);

  // Every source restored: one flood each, the same admissions.
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  const std::uint64_t floods_before = floods.value();
  EXPECT_EQ(run_gatekeeper(g, 0, params).admissions, fresh.admissions);
  EXPECT_EQ(floods.value() - floods_before, params.num_distributers);

  // A budget that is not a positive integer is rejected.
  for (const char* bad : {"2.5", "1e3", "\"7\"", "[1,2]", "0", "-4"}) {
    SCOPED_TRACE(bad);
    std::vector<std::string> payloads = budgets;
    payloads[1] = bad;
    exec::CheckpointStore::instance().save("gatekeeper_budget", fingerprint,
                                           params.num_distributers, payloads);
    EXPECT_THROW(run_gatekeeper(g, 0, params), std::runtime_error);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
