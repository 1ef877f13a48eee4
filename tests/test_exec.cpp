// Tests for the exec layer: cooperative cancellation, checkpoint/resume,
// and the fail-fast sweep harness — including the acceptance property that
// a measurement resumed from a partial checkpoint is bitwise identical to
// an uninterrupted run at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cores/core_profile.hpp"
#include "dynamic/evolution.hpp"
#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "parallel/parallel.hpp"
#include "sybil/gatekeeper.hpp"
#include "test_graphs.hpp"
#include "util/json.hpp"

namespace sntrust {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Restores process-global exec state (cancellation, deadline, checkpoint
/// path) no matter how a test exits.
struct ExecStateGuard {
  ~ExecStateGuard() {
    exec::reset_process_cancel();
    exec::set_process_deadline(exec::Deadline{});
    exec::CheckpointStore::instance().set_path("");
  }
};

/// An exception type of the tests' own, so a test can see that a sweep
/// hands a source's exception to the caller unchanged.
struct SourceError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The records a sweep left in the checkpoint file at `path`, by index.
exec::Records checkpointed(const std::string& path, const std::string& kind,
                           std::uint64_t fingerprint, std::size_t items) {
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);  // reload from disk
  return store.restore(kind, fingerprint, items);
}

/// The checkpoint's encoding of `record`: 16 lowercase hex digits per word.
std::string hex_words(const exec::Record& record) {
  std::string text;
  for (const std::uint64_t word : record) {
    char digits[17];
    std::snprintf(digits, sizeof digits, "%016llx",
                  static_cast<unsigned long long>(word));
    text += digits;
  }
  return text;
}

/// A checkpoint file of one sweep entry, stamped with the CRC a writer
/// would stamp, so the loader reads past the CRC check whatever the entry
/// holds.
std::string checkpoint_text(std::int64_t schema_version,
                            const std::string& kind,
                            std::uint64_t fingerprint, json::Value items,
                            json::Object completed) {
  const std::string fp = hex_words({fingerprint});
  json::Object entry;
  entry.emplace_back("fingerprint", json::Value::string(fp));
  entry.emplace_back("items", std::move(items));
  entry.emplace_back("completed", json::Value::object(std::move(completed)));
  json::Object sweeps;
  sweeps.emplace_back(kind + ":" + fp, json::Value::object(std::move(entry)));
  const json::Value sweeps_value = json::Value::object(std::move(sweeps));
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x",
                static_cast<unsigned>(exec::crc32(sweeps_value.dump())));
  json::Object doc;
  doc.emplace_back("schema_version", json::Value::integer(schema_version));
  doc.emplace_back("sweeps", sweeps_value);
  doc.emplace_back("crc32", json::Value::string(crc));
  return json::Value::object(std::move(doc)).dump();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
}

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

  // Words come back as their bits: a double, a NaN, the extremes, and an
  // empty record, which is the measuring module's to refuse.
  const double nan = -std::numeric_limits<double>::quiet_NaN();
  const exec::Records records{
      {0, {1, 2}},
      {2, {std::bit_cast<std::uint64_t>(0.25), 3,
           std::bit_cast<std::uint64_t>(nan), 0, ~std::uint64_t{0}}},
      {3, {}}};
  store.save("unit", 0xabcdULL, 4, records);

  // One lowercase hex string per record, 16 digits per word.
  std::ifstream in(path);
  const json::Value doc = json::Value::parse(
      std::string(std::istreambuf_iterator<char>(in), {}));
  EXPECT_EQ(doc.find("schema_version")->as_int(), 2);
  const json::Value* completed = doc.find("sweeps")
                                     ->find("unit:000000000000abcd")
                                     ->find("completed");
  EXPECT_EQ(completed->find("0")->as_string(),
            "00000000000000010000000000000002");
  EXPECT_EQ(completed->find("3")->as_string(), "");

  // Re-entering the path drops in-memory state, forcing a reload from disk.
  store.set_path(path);
  EXPECT_EQ(store.restore("unit", 0xabcdULL, 4), records);

  // Fingerprint or item-count mismatch: treated as a different sweep.
  EXPECT_TRUE(store.restore("unit", 0x9999ULL, 4).empty());
  EXPECT_TRUE(store.restore("unit", 0xabcdULL, 5).empty());
  std::remove(path.c_str());
}

TEST(ExecCheckpoint, CorruptOrMismatchedFilesStartFresh) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_corrupt.json");
  exec::CheckpointStore& store = exec::CheckpointStore::instance();

  const auto expects_fresh = [&](const std::string& contents) {
    SCOPED_TRACE(contents);
    write_file(path, contents);
    store.set_path(path);
    EXPECT_TRUE(store.restore("unit", 1, 2).empty());
  };

  expects_fresh("not json at all {{{");
  expects_fresh("{\"schema_version\":2,\"sweeps\":{");  // truncated
  expects_fresh("{\"schema_version\":99,\"sweeps\":{},\"crc32\":\"0\"}");
  expects_fresh("{\"schema_version\":2.0,\"sweeps\":{},\"crc32\":\"0\"}");
  expects_fresh(  // valid shape, wrong CRC: corrupt records
      "{\"schema_version\":2,\"sweeps\":{\"unit:0000000000000001\":"
      "{\"fingerprint\":\"0000000000000001\",\"items\":2,"
      "\"completed\":{\"0\":\"0000000000000001\"}}},"
      "\"crc32\":\"00000000\"}");
  // A version-1 file, whose records were JSON documents, with a valid CRC.
  json::Object v1_completed;
  v1_completed.emplace_back("0", json::Value::parse("[0.5,0.25]"));
  expects_fresh(checkpoint_text(1, "unit", 1, json::Value::integer(2),
                                std::move(v1_completed)));
  // An entry whose item count is not a non-negative integer is skipped.
  for (const char* items : {"2.5", "1e300", "-1"}) {
    json::Object completed;
    completed.emplace_back("0", json::Value::string(hex_words({7})));
    expects_fresh(checkpoint_text(2, "unit", 1, json::Value::parse(items),
                                  std::move(completed)));
  }
  std::remove(path.c_str());
}

TEST(ExecSweep, ComputesEveryPayload) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep";
  const exec::SweepResult result = exec::run_sweep(
      8, options, [](std::size_t i, std::uint32_t) {
        return exec::Record{i * i};
      });
  ASSERT_EQ(result.records.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(result.records[i], exec::Record{i * i});
  EXPECT_EQ(result.computed, 8u);
  EXPECT_EQ(result.restored, 0u);
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
        return exec::Record{static_cast<std::uint64_t>(others.load())};
      });
  EXPECT_EQ(result.records[0], exec::Record{7});
  EXPECT_EQ(result.computed, 8u);
}

TEST(ExecSweep, FramesCountCompletedSourcesAsTheSweepRuns) {
  // A sweep's progress signal is the count of its per-source latency
  // histogram, which every telemetry frame carries while the run goes.
  ExecStateGuard guard;
  parallel::ScopedThreadCount serial{1};
  obs::metrics_reset_all();
  const auto sources_in_frame = [] {
    const json::Value frame = obs::TelemetryExporter::instance().build_frame();
    const json::Value* entry =
        frame.find("quantiles")->find("sweep.unit_progress.source_ms");
    return entry == nullptr ? std::int64_t{0} : entry->find("count")->as_int();
  };
  exec::SweepOptions options;
  options.kind = "unit_progress";
  std::vector<std::int64_t> seen;
  exec::run_sweep(6, options, [&](std::size_t, std::uint32_t) {
    seen.push_back(sources_in_frame());
    return exec::Record{0};
  });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sources_in_frame(), 6);
}

TEST(ExecSweep, ThrowingSourceStopsTheSweep) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_throwing_source.json");
  exec::SweepOptions options;
  options.kind = "unit_sweep_throw";
  options.fingerprint = 3;
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    parallel::ScopedThreadCount scope{threads};
    std::remove(path.c_str());
    exec::CheckpointStore::instance().set_path(path);
    std::vector<int> returned(16, 0);
    try {
      exec::run_sweep(16, options,
                      [&](std::size_t i, std::uint32_t) -> exec::Record {
                        if (i == 5) throw SourceError("boom 5");
                        returned[i] = 1;
                        return {i};
                      });
      ADD_FAILURE() << "the sweep returned";
    } catch (const SourceError& error) {
      EXPECT_STREQ(error.what(), "boom 5");  // the source's own exception
    }
    // In-flight sources finished, and every source that returned is in
    // the checkpoint.
    const exec::Records saved =
        checkpointed(path, options.kind, options.fingerprint, 16);
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_EQ(saved.count(i) == 0, returned[i] == 0) << "source " << i;
    // Serially, no source after the throwing one started.
    if (threads == 1) {
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(returned[i], i < 5 ? 1 : 0) << "source " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(ExecSweep, SigtermDrainsAndCheckpointsFinishedSources) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_sigterm.json");
  exec::SweepOptions options;
  options.kind = "unit_sweep_sigterm";
  options.fingerprint = 4;
  options.token = exec::process_token();
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    parallel::ScopedThreadCount scope{threads};
    std::remove(path.c_str());
    exec::CheckpointStore::instance().set_path(path);
    exec::reset_process_cancel();
    // The first signal restores the default disposition; re-arm the
    // cooperative handler for each pass.
    exec::install_signal_handlers();
    std::vector<int> ran(12, 0);
    EXPECT_THROW(exec::run_sweep(12, options,
                                 [&](std::size_t i, std::uint32_t) {
                                   ran[i] = 1;
                                   if (i == 4) std::raise(SIGTERM);
                                   return exec::Record{i};
                                 }),
                 exec::CancelledError);
    EXPECT_EQ(exec::process_cancel_reason(), "SIGTERM");
    // Sources that started finished, the signalling one included, and the
    // checkpoint holds each of them.
    const exec::Records saved =
        checkpointed(path, options.kind, options.fingerprint, 12);
    for (std::size_t i = 0; i < 12; ++i)
      EXPECT_EQ(saved.count(i) == 0, ran[i] == 0) << "source " << i;
    EXPECT_EQ(ran[4], 1);
    if (threads == 1) {
      for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(ran[i], i <= 4 ? 1 : 0) << "source " << i;
    }
  }
  std::remove(path.c_str());
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
                                 return exec::Record{};
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
    return exec::Record{100 + i, std::bit_cast<std::uint64_t>(0.1 * i)};
  };
  const exec::SweepResult first = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 6u);

  store.set_path(path);  // force reload from disk
  computed.store(0);
  const exec::SweepResult second = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 0u);
  EXPECT_EQ(second.restored, 6u);
  EXPECT_EQ(second.records, first.records);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Block form: sources grouped into lane blocks, semantics still per source.

using Blocks = std::vector<std::vector<std::size_t>>;

/// compute_block that records the blocks it sees and returns each index
/// as its record.
auto recording_block(Blocks& seen) {
  return [&seen](const std::vector<std::size_t>& indices) {
    seen.push_back(indices);
    std::vector<exec::Record> records;
    for (const std::size_t i : indices) records.push_back({i});
    return records;
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
    EXPECT_EQ(result.records[i], exec::Record{i});
  EXPECT_EQ(result.computed, 23u);
}

TEST(ExecSweepBlocks, ThrowingBlockStopsTheSweep) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_blocks_throw.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);
  exec::SweepOptions options;
  options.kind = "unit_blocks_throw";
  options.fingerprint = 5;
  Blocks seen;
  const auto record = recording_block(seen);
  try {
    exec::run_sweep_blocks(12, 4, options,
                           [&](const std::vector<std::size_t>& indices) {
                             if (indices.front() == 4)
                               throw SourceError("block boom");
                             return record(indices);
                           });
    ADD_FAILURE() << "the sweep returned";
  } catch (const SourceError& error) {
    EXPECT_STREQ(error.what(), "block boom");  // the block's own exception
  }
  // The block after the throwing one never started; the one before it is
  // checkpointed.
  EXPECT_EQ(seen, (Blocks{{0, 1, 2, 3}}));
  const exec::Records saved =
      checkpointed(path, options.kind, options.fingerprint, 12);
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_EQ(saved.count(i) == 0, i >= 4) << "source " << i;
  std::remove(path.c_str());
}

TEST(ExecSweepBlocks, EachSourceIsChargedItsShareOfTheBlock) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_blocks_share";
  const auto sleepy = [](const std::vector<std::size_t>& indices) {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    return std::vector<exec::Record>(indices.size(), exec::Record{1});
  };
  obs::QuantileHistogram& latency =
      obs::metrics_quantile("sweep.unit_blocks_share.source_ms");
  const std::uint64_t samples_before = latency.snapshot().count;

  // One sample per source, each a quarter of the 80 ms block.
  const exec::SweepResult result =
      exec::run_sweep_blocks(4, 4, options, sleepy);
  EXPECT_EQ(result.computed, 4u);
  const obs::QuantileSnapshot shares = latency.snapshot();
  EXPECT_EQ(shares.count - samples_before, 4u);
  EXPECT_GE(shares.min, 19.0);
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
  // First pass, one source per block: source 3's block throws, so sources
  // 0-2 are checkpointed and 3-5 are left to compute.
  EXPECT_THROW(exec::run_sweep_blocks(
                   6, 1, options,
                   [](const std::vector<std::size_t>& indices) {
                     if (indices.front() == 3) throw SourceError("boom");
                     return std::vector<exec::Record>(1, exec::Record{1});
                   }),
               SourceError);

  store.set_path(path);  // reload from disk
  Blocks seen;
  const exec::SweepResult second =
      exec::run_sweep_blocks(6, 10, options, recording_block(seen));
  EXPECT_EQ(second.restored, 3u);
  EXPECT_EQ(second.computed, 3u);
  EXPECT_EQ(seen, (Blocks{{3, 4, 5}}));
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
}

TEST(ExecSweepBlocks, SigtermDrainsBeforeTheNextBlock) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_blocks_sigterm.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);
  exec::install_signal_handlers();
  exec::SweepOptions options;
  options.kind = "unit_blocks_sigterm";
  options.fingerprint = 6;
  options.token = exec::process_token();
  Blocks seen;
  const auto record = recording_block(seen);
  // The first block raises a real SIGTERM and still returns its records.
  EXPECT_THROW(exec::run_sweep_blocks(
                   30, 10, options,
                   [&](const std::vector<std::size_t>& indices) {
                     if (indices.front() == 0) std::raise(SIGTERM);
                     return record(indices);
                   }),
               exec::CancelledError);
  EXPECT_EQ(exec::process_cancel_reason(), "SIGTERM");
  EXPECT_EQ(seen.size(), 1u);  // no later block started
  const exec::Records saved =
      checkpointed(path, options.kind, options.fingerprint, 30);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_EQ(saved.count(i) == 0, i >= 10) << "source " << i;
  std::remove(path.c_str());
}

TEST(ExecReport, InterruptedExitNamesTheCauseInTheReport) {
  ExecStateGuard guard;
  obs::RunReporter& reporter = obs::RunReporter::instance();
  const auto interrupted = [&] {
    const json::Value report = reporter.build();
    const json::Value* exec_section = report.find("exec");
    return exec_section == nullptr
               ? std::string()
               : exec_section->find("interrupted")->as_string();
  };
  // A process cancellation names itself, whatever the error's message.
  exec::set_process_deadline(exec::Deadline::after_ms(0));
  EXPECT_EQ(exec::interrupted_exit("sweep 'unit' cancelled after 1/2 sources"),
            75);
  EXPECT_EQ(interrupted(), "deadline exceeded");
  // Without one (a CancelSource token), the detail is the cause.
  exec::set_process_deadline(exec::Deadline{});
  EXPECT_EQ(exec::interrupted_exit("cancelled"), 75);
  EXPECT_EQ(interrupted(), "cancelled");
}

// ---------------------------------------------------------------------------
// Acceptance: sweeps resumed from a partial checkpoint are bitwise identical
// to uninterrupted ones.

Graph acceptance_graph() {
  return largest_component(barabasi_albert(300, 3, 5)).graph;
}

MixingOptions acceptance_mixing_options() {
  MixingOptions options;
  options.num_sources = 12;  // two lane blocks of six
  options.max_walk_length = 40;
  options.seed = 77;
  return options;
}

/// The one sweep entry a checkpointed run left in the file at `path`: its
/// key, its item count and its records by index.
struct SavedSweep {
  std::string kind;
  std::uint64_t fingerprint = 0;
  std::uint64_t items = 0;
  exec::Records records;
};

SavedSweep read_saved_sweep(const std::string& path) {
  std::ifstream in(path);
  const json::Value doc = json::Value::parse(
      std::string(std::istreambuf_iterator<char>(in), {}));
  const json::Object& sweeps = doc.find("sweeps")->as_object();
  EXPECT_EQ(sweeps.size(), 1u);
  const json::Member& entry = sweeps.at(0);
  const std::size_t colon = entry.first.find(':');
  SavedSweep saved;
  saved.kind = entry.first.substr(0, colon);
  saved.fingerprint =
      std::stoull(entry.first.substr(colon + 1), nullptr, 16);
  saved.items =
      static_cast<std::uint64_t>(entry.second.find("items")->as_int());
  saved.records =
      checkpointed(path, saved.kind, saved.fingerprint, saved.items);
  return saved;
}

/// Runs `run` once with the checkpoint armed at `path`, then, at 1 and at 4
/// threads, replaces the file with a partial checkpoint holding only the
/// `kept` sources of that run and runs again. `check` compares each resumed
/// result with the uninterrupted one; every resumed run must restore the
/// kept sources and compute the rest.
template <typename Run, typename Check>
void expect_resume_identical(const std::string& path,
                             const std::vector<std::size_t>& kept,
                             const Run& run, const Check& check) {
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);
  const auto full = run();
  const SavedSweep saved = read_saved_sweep(path);

  obs::Counter& restored = obs::metrics_counter("exec.sources_restored");
  obs::Counter& completed = obs::metrics_counter("exec.sources_completed");
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("resumed at " + std::to_string(threads) + " threads");
    std::remove(path.c_str());
    store.set_path(path);
    exec::Records partial;
    for (const std::size_t i : kept) partial[i] = saved.records.at(i);
    store.save(saved.kind, saved.fingerprint, saved.items, partial);
    store.set_path(path);  // reload from disk

    const std::uint64_t restored_before = restored.value();
    const std::uint64_t completed_before = completed.value();
    parallel::ScopedThreadCount scope{threads};
    check(full, run());
    EXPECT_EQ(restored.value() - restored_before, kept.size());
    EXPECT_EQ(completed.value() - completed_before,
              saved.items - kept.size());
  }
  std::remove(path.c_str());
}

void expect_mixing_resume_identical(const std::string& path,
                                    const std::vector<std::size_t>& kept) {
  const Graph g = acceptance_graph();
  const MixingOptions options = acceptance_mixing_options();
  MixingCurves baseline;  // serial, no checkpoint
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing(g, options);
  }
  expect_resume_identical(
      path, kept, [&] { return measure_mixing(g, options); },
      [&](const MixingCurves& full, const MixingCurves& resumed) {
        EXPECT_EQ(full.sources, baseline.sources);
        EXPECT_EQ(full.tvd, baseline.tvd);
        EXPECT_EQ(resumed.sources, baseline.sources);
        EXPECT_EQ(resumed.tvd, baseline.tvd);
      });
}

TEST(ExecResume, MixingSigtermMidRunThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  // A SIGTERM drains the sweep at a block boundary
  // (ExecSweepBlocks.SigtermDrainsBeforeTheNextBlock), so its checkpoint
  // holds whole lane blocks: here the first of two.
  expect_mixing_resume_identical(
      temp_path("sntrust_exec_mixing_resume.json"), {0, 1, 2, 3, 4, 5});
}

TEST(ExecResume, MixingPartialFailureThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  // Whatever subset a failed or interrupted run left, the resumed sweep
  // groups the remaining sources into new lane blocks; lanes are
  // independent, so scattered restored sources change nothing.
  expect_mixing_resume_identical(
      temp_path("sntrust_exec_mixing_scattered.json"), {1, 4, 5, 8, 11});
}

TEST(ExecResume, GatekeeperResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 10;

  GateKeeperResult baseline;  // serial, no checkpoint
  {
    parallel::ScopedThreadCount serial{1};
    baseline = run_gatekeeper(g, 0, params);
  }
  // Restored distributers flood once at their checkpointed budget; the
  // rest search afresh, and the tallies add up to the same admissions.
  expect_resume_identical(
      temp_path("sntrust_exec_gatekeeper_resume.json"), {0, 3, 7},
      [&] { return run_gatekeeper(g, 0, params); },
      [&](const GateKeeperResult& full, const GateKeeperResult& resumed) {
        EXPECT_EQ(full.admissions, baseline.admissions);
        EXPECT_EQ(resumed.distributers, baseline.distributers);
        EXPECT_EQ(resumed.admissions, baseline.admissions);
        EXPECT_EQ(resumed.threshold, baseline.threshold);
      });
}

TEST(ExecResume, SweepsFingerprintTheGraphOnlyWhileACheckpointIsArmed) {
  // Graph::fingerprint() is an O(n + m) scan that only a checkpoint key
  // needs, and it caches its value in the graph: a fresh edge-batch result
  // must come out of every checkpointable sweep unfingerprinted when no
  // checkpoint is armed, and fingerprinted when one is.
  ExecStateGuard guard;
  const Graph base = acceptance_graph();
  Rng rng{41};
  const EdgeBatch batch = testing::churn_batch(base, rng, 4, 2);
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 6;
  MixingOptions mixing = acceptance_mixing_options();
  mixing.num_sources = 3;
  ExpansionOptions expansion;
  expansion.num_sources = 5;
  const std::vector<std::pair<const char*, std::function<void(const Graph&)>>>
      sweeps = {
          {"gatekeeper", [&](const Graph& g) { run_gatekeeper(g, 0, params); }},
          {"mixing", [&](const Graph& g) { measure_mixing(g, mixing); }},
          {"mixing_monte_carlo",
           [&](const Graph& g) { measure_mixing_monte_carlo(g, mixing, 8); }},
          {"core_profile", [&](const Graph& g) { core_profile(g); }},
          {"expansion",
           [&](const Graph& g) { measure_expansion(g, expansion); }},
      };
  const std::uint64_t fingerprint = apply_edge_batch(base, batch).fingerprint();
  const std::string path = temp_path("sntrust_exec_fingerprint_armed.json");
  for (const auto& [name, sweep] : sweeps) {
    SCOPED_TRACE(name);
    exec::CheckpointStore::instance().set_path("");
    const Graph unarmed = apply_edge_batch(base, batch);
    ASSERT_FALSE(unarmed.cached_fingerprint().has_value());
    sweep(unarmed);
    EXPECT_FALSE(unarmed.cached_fingerprint().has_value());

    std::remove(path.c_str());
    exec::CheckpointStore::instance().set_path(path);
    const Graph armed = apply_edge_batch(base, batch);
    sweep(armed);
    EXPECT_EQ(armed.cached_fingerprint(), fingerprint);
  }
  std::remove(path.c_str());
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

  // One entry, keyed by the budget kind, holding one budget word per source.
  const SavedSweep saved = read_saved_sweep(path);
  ASSERT_EQ(saved.kind, "gatekeeper_budget");
  ASSERT_EQ(saved.records.size(), params.num_distributers);
  for (const auto& [i, budget] : saved.records)
    EXPECT_EQ(budget, exec::Record{fresh.budgets.at(i)}) << "source " << i;

  // Every source restored: one flood each, the same admissions.
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  const std::uint64_t floods_before = floods.value();
  EXPECT_EQ(run_gatekeeper(g, 0, params).admissions, fresh.admissions);
  EXPECT_EQ(floods.value() - floods_before, params.num_distributers);

  // A budget that is not one word of at least 1 is rejected.
  for (const exec::Record& bad :
       {exec::Record{0}, exec::Record{}, exec::Record{1, 2}}) {
    SCOPED_TRACE(bad.size());
    exec::Records records = saved.records;
    records[1] = bad;
    exec::CheckpointStore::instance().save(saved.kind, saved.fingerprint,
                                           saved.items, records);
    EXPECT_THROW(run_gatekeeper(g, 0, params), std::runtime_error);
  }
  std::remove(path.c_str());
}

TEST(ExecResume, ExpansionResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  ExpansionOptions options;
  options.num_sources = 20;
  options.seed = 5;
  ExpansionProfile baseline;  // serial, no checkpoint
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_expansion(g, options);
  }
  const auto expect_same = [](const ExpansionProfile& want,
                              const ExpansionProfile& got) {
    EXPECT_EQ(got.sources_used, want.sources_used);
    EXPECT_EQ(got.max_depth, want.max_depth);
    ASSERT_EQ(got.points.size(), want.points.size());
    for (std::size_t p = 0; p < want.points.size(); ++p) {
      EXPECT_EQ(got.points[p].set_size, want.points[p].set_size);
      EXPECT_EQ(got.points[p].min_neighbors, want.points[p].min_neighbors);
      EXPECT_EQ(got.points[p].max_neighbors, want.points[p].max_neighbors);
      EXPECT_EQ(got.points[p].mean_neighbors, want.points[p].mean_neighbors);
      EXPECT_EQ(got.points[p].observations, want.points[p].observations);
    }
  };
  expect_resume_identical(
      temp_path("sntrust_exec_expansion_resume.json"), {0, 5, 6, 13, 19},
      [&] { return measure_expansion(g, options); },
      [&](const ExpansionProfile& full, const ExpansionProfile& resumed) {
        expect_same(baseline, full);
        expect_same(baseline, resumed);
      });
}

TEST(ExecResume, CoreProfileResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = largest_component(barabasi_albert(300, 6, 5)).graph;
  std::vector<CoreLevel> baseline;  // serial, no checkpoint
  {
    parallel::ScopedThreadCount serial{1};
    baseline = core_profile(g);
  }
  ASSERT_GE(baseline.size(), 4u);
  const auto expect_same = [](const std::vector<CoreLevel>& want,
                              const std::vector<CoreLevel>& got) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].k, want[k].k);
      EXPECT_EQ(got[k].vertices, want[k].vertices);
      EXPECT_EQ(got[k].edges, want[k].edges);
      EXPECT_EQ(got[k].nu, want[k].nu);
      EXPECT_EQ(got[k].tau, want[k].tau);
      EXPECT_EQ(got[k].num_components, want[k].num_components);
      EXPECT_EQ(got[k].largest_component, want[k].largest_component);
    }
  };
  expect_resume_identical(
      temp_path("sntrust_exec_cores_resume.json"), {0, 2, 3},
      [&] { return core_profile(g); },
      [&](const std::vector<CoreLevel>& full,
          const std::vector<CoreLevel>& resumed) {
        expect_same(baseline, full);
        expect_same(baseline, resumed);
      });
}

TEST(ExecResume, MonteCarloMixingResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  MixingOptions options = acceptance_mixing_options();
  options.num_sources = 6;
  options.max_walk_length = 12;
  MixingCurves baseline;  // serial, no checkpoint
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing_monte_carlo(g, options, 16);
  }
  expect_resume_identical(
      temp_path("sntrust_exec_monte_carlo_resume.json"), {1, 4},
      [&] { return measure_mixing_monte_carlo(g, options, 16); },
      [&](const MixingCurves& full, const MixingCurves& resumed) {
        EXPECT_EQ(full.sources, baseline.sources);
        EXPECT_EQ(full.tvd, baseline.tvd);
        EXPECT_EQ(resumed.sources, baseline.sources);
        EXPECT_EQ(resumed.tvd, baseline.tvd);
      });
}

TEST(ExecResume, HostileRecordsThrowBeforeUse) {
  // Each case is a checkpoint whose CRC a writer stamped over one bad
  // record. The load or the measuring module must refuse it with
  // std::runtime_error before any aggregate indexes it; under ASan, a curve
  // 5,000 words too long would overflow the max-curve fold if it got in.
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  const std::string path = temp_path("sntrust_exec_hostile_records.json");
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  MixingOptions mixing = acceptance_mixing_options();
  GateKeeperParams gatekeeper;
  gatekeeper.seed = 2026;
  gatekeeper.num_distributers = 4;
  ExpansionOptions expansion;
  expansion.num_sources = 6;
  const Graph cores_graph = largest_component(barabasi_albert(300, 6, 5)).graph;

  struct Case {
    const char* name;
    std::function<void()> run;
    std::size_t index;  // the source whose record goes bad
    std::function<std::string(const exec::Record&)> bad;
    const char* named;  // what the error names
  };
  const auto words = [](const exec::Record& record, std::size_t extra) {
    exec::Record longer = record;
    longer.resize(record.size() + extra, 0x3fe0000000000000ULL);
    return hex_words(longer);
  };
  const std::vector<Case> cases = {
      {"mixing record one word too long",
       [&] { measure_mixing(g, mixing); }, 1,
       [&](const exec::Record& r) { return words(r, 1); }, "measure_mixing"},
      {"mixing record 5,000 words too long",
       [&] { measure_mixing(g, mixing); }, 1,
       [&](const exec::Record& r) { return words(r, 5000); },
       "measure_mixing"},
      {"3-word core record", [&] { core_profile(cores_graph); }, 2,
       [](const exec::Record& r) {
         return hex_words(exec::Record(r.begin(), r.begin() + 3));
       },
       "core_profile"},
      {"2-word GateKeeper record",
       [&] { run_gatekeeper(g, 0, gatekeeper); }, 0,
       [&](const exec::Record& r) { return words(r, 1); }, "run_gatekeeper"},
      {"empty expansion record", [&] { measure_expansion(g, expansion); }, 3,
       [](const exec::Record&) { return std::string(); },
       "measure_expansion"},
      {"15 hex digits", [&] { run_gatekeeper(g, 0, gatekeeper); }, 2,
       [](const exec::Record& r) { return hex_words(r).substr(1); },
       "gatekeeper_budget"},
      {"a non-hex digit", [&] { run_gatekeeper(g, 0, gatekeeper); }, 2,
       [](const exec::Record& r) {
         std::string text = hex_words(r);
         text[7] = 'g';
         return text;
       },
       "gatekeeper_budget"},
      {"an upper-case hex digit", [&] { measure_mixing(g, mixing); }, 0,
       [](const exec::Record& r) {
         std::string text = hex_words(r);
         text[0] = 'A';
         return text;
       },
       "measure_mixing"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // A clean run writes the sweep's entry; then one record goes bad.
    std::remove(path.c_str());
    store.set_path(path);
    c.run();
    const SavedSweep saved = read_saved_sweep(path);
    json::Object completed;
    for (const auto& [i, record] : saved.records)
      completed.emplace_back(
          std::to_string(i),
          json::Value::string(i == c.index ? c.bad(record)
                                           : hex_words(record)));
    const auto items = static_cast<std::int64_t>(saved.items);
    write_file(path, checkpoint_text(2, saved.kind, saved.fingerprint,
                                     json::Value::integer(items),
                                     std::move(completed)));
    store.set_path(path);
    try {
      c.run();
      ADD_FAILURE() << "the hostile record was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.named), std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
