#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/telemetry.hpp"
#include "obs/thread_slot.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace sntrust::obs {
namespace {

// -------------------------------------------------------------- tracing ---

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    Tracer::instance().enable();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
  }
};

TEST_F(TraceTest, NestedSpansFormDeterministicTree) {
  {
    Span a{"outer"};
    {
      Span b{"child1"};
      { Span c{"grandchild"}; }
    }
    { Span d{"child2", "custom"}; }
  }
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 4u);

  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[0].parent, -1);

  EXPECT_EQ(events[1].name, "child1");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[1].parent, 0);

  EXPECT_EQ(events[2].name, "grandchild");
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_EQ(events[2].parent, 1);

  EXPECT_EQ(events[3].name, "child2");
  EXPECT_EQ(events[3].depth, 1u);
  EXPECT_EQ(events[3].parent, 0);
  EXPECT_EQ(events[3].category, "custom");

  for (const TraceEvent& event : events) EXPECT_TRUE(event.closed);
  // Children nest inside the parent's time window.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].duration_ns,
            events[1].start_ns + events[1].duration_ns);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::instance().disable();
  { Span span{"invisible"}; }
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST_F(TraceTest, SequentialRootsStayRoots) {
  { Span a{"first"}; }
  { Span b{"second"}; }
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[1].parent, -1);
}

/// Minimal JSON well-formedness check: balanced braces/brackets outside
/// strings, valid escapes, non-empty.
void expect_valid_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
  EXPECT_FALSE(text.empty());
}

/// `table` as printed, with each run of column padding (two or more
/// spaces) folded to one comma, so assertions can name a row's leading
/// cells ("phase,3").
std::string printed_cells(const Table& table) {
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  std::string cells;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ' ' && i + 1 < text.size() && text[i + 1] == ' ') {
      cells += ',';
      while (i + 1 < text.size() && text[i + 1] == ' ') ++i;
    } else {
      cells += text[i];
    }
  }
  return cells;
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  {
    Span a{"phase \"quoted\"\n"};  // exercises string escaping
    Span b{"inner"};
  }
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  expect_valid_json(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, ChromeTraceExportEscapesHostileSpanNames) {
  const std::string hostile[] = {
      "control \x01\x1f chars",
      "quotes \" and \\ backslashes",
      "newline\nand\ttab",
      "non-ascii naïve ☃ 😀",
  };
  for (const std::string& name : hostile) { Span span{name}; }
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  // The export must satisfy a strict parser and round-trip every name.
  const json::Value doc = json::Value::parse(out.str());
  const json::Array& events = doc.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].find("name")->as_string(), hostile[i]);
}

TEST_F(TraceTest, TimingTableAggregatesByPath) {
  for (int i = 0; i < 3; ++i) {
    Span outer{"phase"};
    Span inner{"step"};
  }
  const Table table = Tracer::instance().timing_table();
  EXPECT_EQ(table.num_rows(), 2u);  // "phase" and "phase/step"
  const std::string cells = printed_cells(table);
  EXPECT_NE(cells.find("phase,3"), std::string::npos);
  EXPECT_NE(cells.find("phase/step,3"), std::string::npos);
}

// -------------------------------------------------------------- metrics ---

/// Metrics live in a process-wide registry, so other suites running earlier
/// in the same binary leave state behind; metrics_reset_all() in SetUp and
/// TearDown isolates every assertion here.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics_reset_all(); }
  void TearDown() override { metrics_reset_all(); }
};

TEST_F(MetricsTest, CounterAccumulatesAndSnapshots) {
  Counter& c = Metrics::instance().counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  const MetricsSnapshot snap = Metrics::instance().snapshot();
  ASSERT_TRUE(snap.counters.count("test.counter"));
  EXPECT_EQ(snap.counters.at("test.counter"), 42u);
}

TEST_F(MetricsTest, CounterReferenceStableAcrossReset) {
  Counter& before = Metrics::instance().counter("test.stable");
  before.add(7);
  metrics_reset_all();
  EXPECT_EQ(before.value(), 0u);
  Counter& after = Metrics::instance().counter("test.stable");
  EXPECT_EQ(&before, &after);
}

TEST_F(MetricsTest, ThreadSlotsAreDistinctBoundedAndReused) {
  // Start threads that hold their slots until one finds none left: at most
  // kThreadSlots slots are free, so the last of kThreadSlots + 1 threads
  // finds none at the latest.
  std::latch release{1};
  std::vector<std::thread> holders;
  std::vector<std::size_t> held;
  std::size_t last = 0;
  while (holders.size() <= kThreadSlots) {
    std::promise<std::size_t> leased;
    std::future<std::size_t> slot = leased.get_future();
    holders.emplace_back([&release, leased = std::move(leased)]() mutable {
      leased.set_value(thread_slot());
      release.wait();
    });
    last = slot.get();
    if (last == kThreadSlots) break;
    held.push_back(last);
  }
  EXPECT_EQ(last, kThreadSlots);
  std::vector<std::size_t> sorted = held;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  ASSERT_FALSE(held.empty());
  EXPECT_LT(sorted.back(), kThreadSlots);
  release.count_down();
  for (std::thread& holder : holders) holder.join();

  // Exited threads return their slots: the next thread takes the lowest.
  std::size_t reused = kThreadSlots;
  std::thread([&] { reused = thread_slot(); }).join();
  EXPECT_EQ(reused, sorted.front());
}

TEST_F(MetricsTest, CounterSumsEveryThreadsAddsBeyondTheSlotCount) {
  // All threads stay alive until every one has added, so at least eight of
  // them hold no slot and add to the shared cell.
  constexpr std::size_t kThreads = kThreadSlots + 8;
  constexpr std::uint64_t kAdds = 1000;
  Counter& c = Metrics::instance().counter("test.sharded");
  std::latch added{static_cast<std::ptrdiff_t>(kThreads)};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(1 + t % 2);
      added.arrive_and_wait();
    });
  for (std::thread& thread : threads) thread.join();
  const std::uint64_t expected = kAdds * (kThreads + kThreads / 2);
  EXPECT_EQ(c.value(), expected);
  EXPECT_EQ(Metrics::instance().snapshot().counters.at("test.sharded"),
            expected);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST_F(MetricsTest, GaugeIsLastWriteWins) {
  set_gauge("test.gauge", 1.5);
  set_gauge("test.gauge", -3.25);
  EXPECT_DOUBLE_EQ(Metrics::instance().snapshot().gauges.at("test.gauge"),
                   -3.25);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.5), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);  // [1, 2)
  EXPECT_EQ(Histogram::bucket_index(1.9), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);  // [2, 4)
  EXPECT_EQ(Histogram::bucket_index(3.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3u);  // [4, 8)
  EXPECT_EQ(Histogram::bucket_index(1e300), kHistogramBuckets - 1);
}

TEST_F(MetricsTest, HistogramSnapshotIsCorrect) {
  Histogram& h = Metrics::instance().histogram("test.histogram");
  for (const double v : {1.0, 3.0, 3.0, 10.0}) h.observe(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 17.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 4.25);
  ASSERT_EQ(snap.buckets.size(), kHistogramBuckets);
  EXPECT_EQ(snap.buckets[1], 1u);  // 1.0
  EXPECT_EQ(snap.buckets[2], 2u);  // 3.0 x2
  EXPECT_EQ(snap.buckets[4], 1u);  // 10.0 in [8, 16)
}

TEST_F(MetricsTest, EmptyHistogramHoldsMinMaxIdentities) {
  Histogram& h = Metrics::instance().histogram("test.empty");
  const HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.sum, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  // The documented contract: +inf/-inf, the identities of min/max, so folds
  // over snapshots need no empty special case — and reset restores them.
  EXPECT_TRUE(std::isinf(empty.min));
  EXPECT_GT(empty.min, 0.0);
  EXPECT_TRUE(std::isinf(empty.max));
  EXPECT_LT(empty.max, 0.0);

  h.observe(-3.0);
  const HistogramSnapshot one = h.snapshot();
  EXPECT_DOUBLE_EQ(one.min, -3.0);
  EXPECT_DOUBLE_EQ(one.max, -3.0);
  h.reset();
  EXPECT_TRUE(std::isinf(h.snapshot().min));
}

TEST_F(MetricsTest, EmptyHistogramQuantileIsNaN) {
  Histogram& h = Metrics::instance().histogram("test.empty_quantile");
  // The documented empty-histogram contract: count == 0 answers NaN, never
  // a fabricated number renderers might mistake for a latency.
  EXPECT_TRUE(std::isnan(h.snapshot().value_at_quantile(0.5)));
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.snapshot().value_at_quantile(0.5), 3.0);
  h.reset();
  EXPECT_TRUE(std::isnan(h.snapshot().value_at_quantile(0.99)));
}

TEST_F(MetricsTest, HistogramQuantileIsOctaveResolution) {
  Histogram& h = Metrics::instance().histogram("test.coarse_quantile");
  for (int i = 0; i < 99; ++i) h.observe(10.0);
  h.observe(1000.0);
  const HistogramSnapshot snap = h.snapshot();
  // p50 lands in the [8, 16) bucket and answers its midpoint; p100 answers
  // the [512, 1024) midpoint — octave resolution, as documented.
  EXPECT_DOUBLE_EQ(snap.value_at_quantile(0.5), 12.0);
  EXPECT_DOUBLE_EQ(snap.value_at_quantile(1.0), 768.0);
}

// ------------------------------------------------- quantile histograms ---

class QuantileTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics_reset_all(); }
  void TearDown() override { metrics_reset_all(); }
};

TEST_F(QuantileTest, BucketIndexCoversTheTrackedRange) {
  // Exactly 2^kQuantileMinExponent is the first tracked value.
  EXPECT_EQ(QuantileHistogram::bucket_index(0x1.0p-20), 0u);
  EXPECT_EQ(QuantileHistogram::bucket_index(1.0),
            static_cast<std::size_t>(-kQuantileMinExponent) *
                kQuantileSubBuckets);
  // Out-of-range and non-finite values return the sentinel.
  EXPECT_EQ(QuantileHistogram::bucket_index(0.0), kQuantileBuckets);
  EXPECT_EQ(QuantileHistogram::bucket_index(-1.0), kQuantileBuckets);
  EXPECT_EQ(QuantileHistogram::bucket_index(0x1.0p+44), kQuantileBuckets);
  EXPECT_EQ(QuantileHistogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN()),
            kQuantileBuckets);

  // The midpoint of the bucket a value lands in is within the documented
  // relative error of the value itself — the core accuracy invariant.
  for (double value = 0x1.0p-20; value < 0x1.0p+44; value *= 1.37) {
    const std::size_t index = QuantileHistogram::bucket_index(value);
    ASSERT_LT(index, kQuantileBuckets) << value;
    const double midpoint = QuantileHistogram::bucket_midpoint(index);
    EXPECT_LE(std::abs(midpoint - value) / value,
              kQuantileRelativeError + 1e-12)
        << "value " << value << " bucket " << index;
  }
}

TEST_F(QuantileTest, EmptyHistogramContract) {
  QuantileHistogram h;
  const QuantileSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(std::isnan(snap.value_at_quantile(0.5)));
  EXPECT_TRUE(std::isinf(snap.min));
  EXPECT_GT(snap.min, 0.0);
  EXPECT_TRUE(std::isinf(snap.max));
  EXPECT_LT(snap.max, 0.0);
}

TEST_F(QuantileTest, SingleValueAnswersExactly) {
  QuantileHistogram h;
  h.record(3.7);
  const QuantileSnapshot snap = h.snapshot();
  // min == max == 3.7 clamps the bucket midpoint to the exact value.
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(snap.value_at_quantile(q), 3.7);
}

TEST_F(QuantileTest, QuantileErrorWithinDocumentedBound) {
  QuantileHistogram h;
  std::vector<double> samples;
  // Deterministic multiset spanning ~9 octaves.
  double value = 0.37;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(value);
    h.record(value);
    value = value * 1.0023 + 0.0007;
    if (value > 200.0) value *= 0.0031;
  }
  std::sort(samples.begin(), samples.end());
  const QuantileSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(samples.size())))));
    const double exact = samples[rank - 1];
    const double estimate = snap.value_at_quantile(q);
    EXPECT_LE(std::abs(estimate - exact) / exact,
              kQuantileRelativeError + 1e-12)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST_F(QuantileTest, OutOfRangeSamplesLandInUnderOverflow) {
  QuantileHistogram h;
  h.record(0.0);
  h.record(-5.0);
  h.record(0x1.0p+50);
  h.record(std::numeric_limits<double>::quiet_NaN());
  const QuantileSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.underflow, 3u);  // 0, -5, NaN
  EXPECT_EQ(snap.overflow, 1u);
  // NaN never perturbs the exact extrema.
  EXPECT_DOUBLE_EQ(snap.min, -5.0);
  EXPECT_DOUBLE_EQ(snap.max, 0x1.0p+50);
  EXPECT_DOUBLE_EQ(snap.value_at_quantile(0.01), -5.0);   // underflow -> min
  EXPECT_DOUBLE_EQ(snap.value_at_quantile(1.0), 0x1.0p+50);  // overflow -> max
}

TEST_F(QuantileTest, SnapshotsAreBitwiseDeterministicAcrossThreadCounts) {
  std::vector<double> samples;
  double value = 0.11;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(value);
    value = value * 1.0019 + 0.0003;
    if (value > 900.0) value *= 0.0013;
  }

  QuantileHistogram serial;
  for (const double v : samples) serial.record(v);

  for (const unsigned threads : {2u, 5u, 8u}) {
    QuantileHistogram parallel;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
      workers.emplace_back([&, t] {
        // Strided partition: every thread records a different interleaving.
        for (std::size_t i = t; i < samples.size(); i += threads)
          parallel.record(samples[i]);
      });
    for (std::thread& w : workers) w.join();
    // Same multiset, any thread count, any arrival order: identical bits.
    EXPECT_TRUE(serial.snapshot() == parallel.snapshot())
        << threads << " threads";
  }
}

TEST_F(QuantileTest, ShardsBeyondTheSlotCountFoldToTheSerialSnapshot) {
  // Threads with a slot record into their own shards and the rest into the
  // shared one; all stay alive until every one has recorded.
  constexpr std::size_t kThreads = kThreadSlots + 8;
  std::vector<double> samples;
  double value = 0.07;
  for (int i = 0; i < 9'000; ++i) {
    samples.push_back(value);
    value = value * 1.0031 + 0.0002;
    if (value > 700.0) value *= 0.0017;
  }
  samples.push_back(0.0);        // underflow
  samples.push_back(0x1.0p+50);  // overflow
  QuantileHistogram serial;
  for (const double v : samples) serial.record(v);

  QuantileHistogram sharded;
  std::latch recorded{static_cast<std::ptrdiff_t>(kThreads)};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < samples.size(); i += kThreads)
        sharded.record(samples[i]);
      recorded.arrive_and_wait();
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(sharded.snapshot() == serial.snapshot());

  // Reset zeroes every shard in place; recording afterwards starts over.
  sharded.reset();
  EXPECT_TRUE(sharded.snapshot() == QuantileHistogram().snapshot());
  sharded.record(2.5);
  EXPECT_EQ(sharded.snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(sharded.snapshot().min, 2.5);
}

TEST_F(QuantileTest, ResetRestoresTheEmptyState) {
  QuantileHistogram h;
  h.record(1.0);
  h.record(2.0);
  h.reset();
  EXPECT_TRUE(h.snapshot() == QuantileHistogram().snapshot());
}

TEST_F(QuantileTest, RegistryHandsOutStableReferencesAndSnapshots) {
  QuantileHistogram& h = Metrics::instance().quantile("test.q");
  EXPECT_EQ(&h, &Metrics::instance().quantile("test.q"));
  record_latency("test.lat", 5.0);
  record_latency("test.lat", 50.0);
  const MetricsSnapshot snap = Metrics::instance().snapshot();
  ASSERT_TRUE(snap.quantiles.count("test.lat"));
  EXPECT_EQ(snap.quantiles.at("test.lat").count, 2u);
}

TEST_F(QuantileTest, SnapshotRacingRecordersStaysInternallyConsistent) {
  // Hammer test (meaningful under TSan): four writers flood a registered
  // histogram while the main thread snapshots the whole registry. Every
  // snapshot must be internally consistent — ranks resolve, quantiles are
  // finite once non-empty — and the final count must be exact.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50'000;
  QuantileHistogram& h = Metrics::instance().quantile("test.hammer");
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&, t] {
      double value = 0.5 + t;
      for (int i = 0; i < kPerWriter; ++i) {
        h.record(value);
        value = value * 1.0001 + 0.001;
        if (value > 100.0) value *= 0.01;
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  std::uint64_t last_count = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const MetricsSnapshot snap = Metrics::instance().snapshot();
    const auto found = snap.quantiles.find("test.hammer");
    if (found != snap.quantiles.end() && found->second.count > 0) {
      const double p50 = found->second.value_at_quantile(0.5);
      EXPECT_TRUE(std::isfinite(p50));
      EXPECT_GE(found->second.count, last_count);  // counts only grow
      last_count = found->second.count;
    }
    std::this_thread::yield();
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(h.snapshot().count,
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

// ------------------------------------------------------------ telemetry ---

std::string obs_temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Telemetry, ParsesSpecWithOptionalPeriod) {
  {
    const TelemetryOptions options = parse_telemetry_spec("out.jsonl").value();
    EXPECT_EQ(options.jsonl_path, "out.jsonl");
    EXPECT_EQ(options.period_ms, kTelemetryDefaultPeriodMs);
    EXPECT_TRUE(options.enabled());
  }
  {
    const TelemetryOptions options =
        parse_telemetry_spec("out.jsonl:250").value();
    EXPECT_EQ(options.jsonl_path, "out.jsonl");
    EXPECT_EQ(options.period_ms, 250u);
  }
  {
    // A non-numeric suffix is part of the path, not a period.
    const TelemetryOptions options =
        parse_telemetry_spec("dir:with/colon").value();
    EXPECT_EQ(options.jsonl_path, "dir:with/colon");
    EXPECT_EQ(options.period_ms, kTelemetryDefaultPeriodMs);
  }
  {
    // Period 0 would spin; clamp to 1 ms.
    const TelemetryOptions options =
        parse_telemetry_spec("out.jsonl:0").value();
    EXPECT_EQ(options.period_ms, 1u);
  }
  // An empty path, an empty period, or one past the range is not a spec.
  for (const char* bad : {"", ":250", "out.jsonl:",
                          "out.jsonl:1000000000001",
                          "out.jsonl:99999999999999999999"})
    EXPECT_FALSE(parse_telemetry_spec(bad).has_value()) << bad;
}

TEST(Telemetry, ExporterWritesParseableFramesAcrossLifecycle) {
  metrics_reset_all();
  const std::string jsonl = obs_temp_path("sntrust_telemetry_lifecycle.jsonl");
  std::remove(jsonl.c_str());

  count("test.frames_counter", 3);
  set_gauge("test.frames_gauge", 1.25);
  record_latency("test.frames_lat", 4.0);

  TelemetryExporter& exporter = TelemetryExporter::instance();
  const std::uint64_t before = exporter.frames_written();
  TelemetryOptions options;
  options.jsonl_path = jsonl;
  options.period_ms = 60'000;  // no periodic frames during the test
  exporter.start(options);
  EXPECT_TRUE(exporter.running());
  EXPECT_EQ(exporter.frames_written() - before, 1u);  // frame 0, synchronous

  record_latency("test.frames_lat", 8.0);
  exporter.flush();
  exporter.stop();  // writes the final frame
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.frames_written() - before, 3u);

  // Every line must satisfy the strict JSON parser, with the documented
  // schema fields and monotonically increasing sequence numbers.
  const TelemetryFrames frames = read_telemetry_frames(jsonl);
  EXPECT_FALSE(frames.truncated_tail);
  ASSERT_EQ(frames.frames.size(), 3u);
  std::int64_t last_seq = -1;
  for (const json::Value& frame : frames.frames) {
    EXPECT_EQ(frame.find("schema_version")->as_int(), kTelemetrySchemaVersion);
    EXPECT_GT(frame.find("seq")->as_int(), last_seq);
    last_seq = frame.find("seq")->as_int();
    ASSERT_NE(frame.find("tool"), nullptr);
    ASSERT_NE(frame.find("totals"), nullptr);
    EXPECT_NE(frame.find("totals")->find("peak_rss_bytes"), nullptr);
    ASSERT_NE(frame.find("counters"), nullptr);
    ASSERT_NE(frame.find("quantiles"), nullptr);
    EXPECT_EQ(frame.find("windows"), nullptr);  // dropped in version 2
  }
  // The final frame carries the recorded state: counter value and the
  // quantile entry with its value fields (count > 0 gates them in).
  const json::Value& last = frames.frames.back();
  EXPECT_EQ(last.find("counters")->find("test.frames_counter")->as_int(), 3);
  const json::Value* lat = last.find("quantiles")->find("test.frames_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 2);
  ASSERT_NE(lat->find("p50"), nullptr);
  EXPECT_GT(lat->find("p50")->as_number(), 0.0);
  ASSERT_NE(lat->find("p99"), nullptr);

  std::remove(jsonl.c_str());
  metrics_reset_all();
}

TEST(Telemetry, ExporterRestartsAfterStop) {
  const std::string jsonl = obs_temp_path("sntrust_telemetry_restart.jsonl");
  std::remove(jsonl.c_str());
  TelemetryExporter& exporter = TelemetryExporter::instance();
  TelemetryOptions options;
  options.jsonl_path = jsonl;
  options.period_ms = 60'000;
  exporter.start(options);
  exporter.stop();
  exporter.start(options);
  exporter.stop();
  // Two start/stop cycles, two frames each, appended to the same file.
  const TelemetryFrames frames = read_telemetry_frames(jsonl);
  EXPECT_EQ(frames.frames.size(), 4u);
  std::remove(jsonl.c_str());
}

TEST(Telemetry, FailingSinkDoesNotWedgeTheExporter) {
  // /dev/full opens but refuses every write: a real sink failure.
  TelemetryExporter& exporter = TelemetryExporter::instance();
  const std::uint64_t before = exporter.frames_written();
  TelemetryOptions options;
  options.jsonl_path = "/dev/full";
  options.period_ms = 60'000;
  testing::internal::CaptureStderr();
  exporter.start(options);  // frame 0 fails, is reported, and start goes on
  EXPECT_TRUE(exporter.running());
  EXPECT_THROW(exporter.flush(), std::runtime_error);
  // stop() tolerates a failing final frame (it must never take down the
  // workload at exit) and still shuts the exporter down cleanly.
  EXPECT_NO_THROW(exporter.stop());
  const std::string reported = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(exporter.running());

  // No frame reached the stream, so none is counted; frame 0 and the final
  // frame were each reported on stderr.
  EXPECT_EQ(exporter.frames_written() - before, 0u);
  std::size_t failures = 0;
  for (std::size_t at = reported.find("telemetry: write failed /dev/full");
       at != std::string::npos;
       at = reported.find("telemetry: write failed /dev/full", at + 1))
    ++failures;
  EXPECT_EQ(failures, 2u) << reported;
}

TEST(Telemetry, TruncatedFinalFrameIsTolerated) {
  const std::string path = obs_temp_path("sntrust_telemetry_truncated.jsonl");
  {
    std::ofstream out{path, std::ios::trunc};
    out << R"({"schema_version":1,"seq":0})" << "\n"
        << R"({"schema_version":1,"seq":1})" << "\n"
        << R"({"schema_version":1,"se)";  // killed mid-append
  }
  const TelemetryFrames frames = read_telemetry_frames(path);
  EXPECT_TRUE(frames.truncated_tail);
  ASSERT_EQ(frames.frames.size(), 2u);
  EXPECT_EQ(frames.frames[1].find("seq")->as_int(), 1);
  std::remove(path.c_str());
}

TEST(Telemetry, MalformedMiddleFrameThrows) {
  const std::string path = obs_temp_path("sntrust_telemetry_malformed.jsonl");
  {
    std::ofstream out{path, std::ios::trunc};
    out << R"({"schema_version":1,"seq":0})" << "\n"
        << "not json\n"
        << R"({"schema_version":1,"seq":2})" << "\n";
  }
  // A damaged line that is not the tail means the file is not a telemetry
  // stream — refuse it loudly rather than silently dropping frames.
  EXPECT_THROW(read_telemetry_frames(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust::obs
