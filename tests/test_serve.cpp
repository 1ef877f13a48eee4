#include "serve/trust_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "parallel/parallel.hpp"
#include "serve/zipf.hpp"
#include "util/rng.hpp"

namespace sntrust::serve {
namespace {

using parallel::ScopedThreadCount;

Graph expander(VertexId n, std::uint64_t seed) {
  return largest_component(barabasi_albert(n, 4, seed)).graph;
}

TrustService::Options small_options() {
  TrustService::Options options;
  options.config.seeds = {0, 1, 2};
  options.config.gatekeeper.seed = 7;
  return options;
}

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::uint64_t latency_samples() {
  return obs::metrics_quantile("serve.query_ms").snapshot().count;
}

/// The deterministic query mix the tests replay (all kinds, both defenses).
std::vector<Query> query_mix(const Graph& g, std::size_t count,
                             std::uint64_t seed) {
  const ZipfGenerator zipf{g.num_vertices(), 0.99};
  Rng rng{seed};
  std::vector<Query> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.vertex = static_cast<VertexId>(zipf(rng));
    q.kind = static_cast<QueryKind>(rng.uniform(4));
    q.defense = rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
    queries.push_back(q);
  }
  return queries;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::metrics_reset_all(); }
  void TearDown() override { obs::metrics_reset_all(); }
};

// ------------------------------------------------------------ zipf sampler ---

TEST(Zipf, DeterministicAcrossStreamsAndSkewedTowardLowRanks) {
  const ZipfGenerator zipf{1000, 0.99};
  Rng a{42}, b{42};
  std::vector<std::uint64_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = zipf(a);
    ASSERT_EQ(x, zipf(b));  // same seed => same trace, draw for draw
    ASSERT_LT(x, 1000u);
    ++counts[x];
  }
  // Zipf(0.99): rank 0 alone carries ~13% of the mass; the top decile
  // dominates the bottom decile by a wide margin.
  std::uint64_t top = 0, bottom = 0;
  for (int i = 0; i < 100; ++i) top += counts[i];
  for (int i = 900; i < 1000; ++i) bottom += counts[i];
  EXPECT_GT(counts[0], counts[500]);
  EXPECT_GT(top, 10 * bottom);
}

TEST(Zipf, ZeroExponentIsUniformAndBadArgsThrow) {
  const ZipfGenerator uniform{4, 0.0};
  Rng rng{1};
  std::vector<std::uint64_t> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[uniform(rng)];
  for (const std::uint64_t c : counts) {
    EXPECT_GT(c, 1700u);
    EXPECT_LT(c, 2300u);
  }
  EXPECT_THROW(ZipfGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(10, -0.5), std::invalid_argument);
}

// ---------------------------------------------------------- trust service ---

TEST_F(ServeTest, RejectsBadConstruction) {
  EXPECT_THROW(TrustService(Graph{}, small_options()), std::invalid_argument);
  Graph g = expander(100, 1);
  TrustService::Options no_seeds = small_options();
  no_seeds.config.seeds.clear();
  EXPECT_THROW(TrustService(std::move(g), std::move(no_seeds)),
               std::invalid_argument);
  Graph g2 = expander(100, 1);
  TrustService::Options bad_seed = small_options();
  bad_seed.config.seeds = {1u << 30};
  EXPECT_THROW(TrustService(std::move(g2), std::move(bad_seed)),
               std::invalid_argument);
}

TEST_F(ServeTest, AnswersMatchUncachedReferenceBitwise) {
  TrustService service{expander(300, 2), small_options()};
  for (const Query& q : query_mix(service.graph(), 32, 99)) {
    const Answer cached = service.answer(q);
    const Answer uncached = service.answer_uncached(q);
    ASSERT_EQ(std::memcmp(&cached, &uncached, sizeof(Answer)), 0);
  }
  Query out_of_range;
  out_of_range.vertex = service.graph().num_vertices();
  EXPECT_EQ(service.answer(out_of_range).status, QueryStatus::kInvalidVertex);
}

TEST_F(ServeTest, LandmarkFromSybilRankMatchesUncachedWalk) {
  // Equal resolved lengths, the default and explicit, take the landmark from
  // SybilRank's power iteration; unequal ones walk on their own. Either way
  // the answers equal the uncached reference's own walk.
  const std::pair<std::uint32_t, std::uint32_t> lengths[] = {
      {0, 0}, {6, 6}, {0, 5}, {7, 0}};
  for (const auto& [iterations, walk_length] : lengths) {
    SCOPED_TRACE("sybilrank_iterations " + std::to_string(iterations) +
                 " landmark_walk_length " + std::to_string(walk_length));
    TrustService::Options options = small_options();
    options.config.sybilrank_iterations = iterations;
    options.config.landmark_walk_length = walk_length;
    TrustService service{expander(300, 8), options};
    for (VertexId v = 0; v < service.graph().num_vertices(); ++v) {
      Query q;
      q.vertex = v;
      q.kind = QueryKind::kLandmark;
      const Answer cached = service.answer(q);
      const Answer uncached = service.answer_uncached(q);
      ASSERT_EQ(std::memcmp(&cached, &uncached, sizeof(Answer)), 0)
          << "vertex " << v;
    }
  }
}

TEST(ServeConfig, DefaultLengthsAreFloorLog2NPlusOne) {
  EXPECT_EQ(resolve_log_iterations(0, 8), 4u);
  EXPECT_EQ(resolve_log_iterations(0, 9), 4u);
  EXPECT_EQ(resolve_log_iterations(0, 7), 3u);
  EXPECT_EQ(resolve_log_iterations(3, 8), 3u);
}

TEST_F(ServeTest, BatchedPipelinedAnswersAreBitwiseIdentical) {
  TrustService service{expander(300, 3), small_options()};
  const std::vector<Query> queries = query_mix(service.graph(), 257, 5);

  // Reference: one-at-a-time direct answers.
  std::vector<Answer> reference(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    reference[i] = service.answer(queries[i]);

  // answer_batch, and ask_batch at several client batch shapes.
  std::vector<Answer> direct(queries.size());
  service.answer_batch(queries, direct);
  EXPECT_EQ(std::memcmp(direct.data(), reference.data(),
                        queries.size() * sizeof(Answer)),
            0);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  queries.size()}) {
    std::vector<Answer> asked(queries.size());
    for (std::size_t at = 0; at < queries.size(); at += chunk) {
      const std::size_t take = std::min(chunk, queries.size() - at);
      EXPECT_EQ(service.ask_batch(
                    std::span<const Query>{queries}.subspan(at, take),
                    std::span<Answer>{asked}.subspan(at, take)),
                take);
    }
    EXPECT_EQ(std::memcmp(asked.data(), reference.data(),
                          queries.size() * sizeof(Answer)),
              0)
        << "chunk=" << chunk;
  }
}

TEST_F(ServeTest, ThreadCountInvariance) {
  const std::vector<Query> queries =
      query_mix(expander(300, 4), 128, 11);
  std::vector<Answer> serial(queries.size());
  {
    ScopedThreadCount scoped{1};
    TrustService service{expander(300, 4), small_options()};
    service.ask_batch(queries, serial);
  }
  std::vector<Answer> wide(queries.size());
  {
    ScopedThreadCount scoped{4};
    TrustService service{expander(300, 4), small_options()};
    service.ask_batch(queries, wide);
  }
  EXPECT_EQ(std::memcmp(serial.data(), wide.data(),
                        queries.size() * sizeof(Answer)),
            0);
}

TEST_F(ServeTest, NoSnapshotAnswersUnavailableUntilStart) {
  TrustService::Options options = small_options();
  options.precompute = false;
  TrustService service{expander(200, 22), std::move(options)};
  Query q;
  q.kind = QueryKind::kCoreness;
  q.vertex = 3;
  // No snapshot yet: an explicit refusal, not a degraded guess.
  const Answer refused = service.answer(q);
  EXPECT_EQ(refused.status, QueryStatus::kUnavailable);
  EXPECT_FALSE(refused.degraded);
  EXPECT_EQ(counter_value("serve.unavailable"), 1u);
  std::vector<Answer> asked(1);
  EXPECT_EQ(service.ask_batch(std::span<const Query>{&q, 1}, asked), 0u);
  EXPECT_EQ(asked[0].status, QueryStatus::kUnavailable);
  q.vertex = service.graph().num_vertices();
  EXPECT_EQ(service.answer(q).status, QueryStatus::kInvalidVertex);

  q.vertex = 3;
  service.start();
  const Answer healed = service.answer(q);
  const Answer reference = service.answer_uncached(q);
  EXPECT_EQ(std::memcmp(&healed, &reference, sizeof(Answer)), 0);

  // start() is idempotent: a second call builds nothing.
  const std::uint64_t floods = counter_value("gatekeeper.ticket_runs");
  service.start();
  EXPECT_EQ(counter_value("gatekeeper.ticket_runs"), floods);
}

TEST_F(ServeTest, OnlyAskPathsRecordOneLatencySamplePerCall) {
  TrustService service{expander(300, 12), small_options()};
  const std::vector<Query> queries = query_mix(service.graph(), 40, 23);
  std::vector<Answer> answers(queries.size());

  // The plain reads count their queries and record no latency.
  for (const Query& q : queries) (void)service.answer(q);
  service.answer_batch(queries, answers);
  EXPECT_EQ(counter_value("serve.queries"), 2 * queries.size());
  EXPECT_EQ(latency_samples(), 0u);

  // ask() and ask_batch() record one sample per call, whatever its size.
  for (const Query& q : queries) (void)service.ask(q);
  EXPECT_EQ(latency_samples(), queries.size());
  service.ask_batch(queries, answers);
  service.ask_batch(std::span<const Query>{queries}.first(3),
                    std::span<Answer>{answers}.first(3));
  EXPECT_EQ(latency_samples(), queries.size() + 2);
  EXPECT_EQ(counter_value("serve.queries"), 4 * queries.size() + 3);
}

TEST_F(ServeTest, ConcurrentAskBatchesCountEveryQueryAndCallOnce) {
  // Counters and the latency histogram are sharded per thread; their
  // totals must still be exact.
  TrustService service{expander(300, 13), small_options()};
  const std::vector<Query> queries = query_mix(service.graph(), 16, 29);
  constexpr std::uint64_t kThreads = 6;
  constexpr std::uint64_t kCalls = 200;
  std::vector<std::thread> clients;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    clients.emplace_back([&] {
      std::vector<Answer> answers(queries.size());
      for (std::uint64_t call = 0; call < kCalls; ++call)
        service.ask_batch(queries, answers);
    });
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(counter_value("serve.queries"),
            kThreads * kCalls * queries.size());
  EXPECT_EQ(latency_samples(), kThreads * kCalls);
}

TEST_F(ServeTest, CancellationReturnsExplicitPartialAnswers) {
  exec::CancelSource source;
  TrustService::Options options = small_options();
  options.token = source.token();
  TrustService service{expander(300, 8), std::move(options)};

  const std::vector<Query> queries = query_mix(service.graph(), 64, 17);
  std::vector<Answer> answers(queries.size());
  EXPECT_EQ(service.ask_batch(queries, answers), queries.size());

  source.cancel();
  std::vector<Answer> refused(queries.size());
  // Post-deadline submissions complete immediately with explicit kCancelled
  // partials (the exit-75 contract) instead of blocking.
  EXPECT_EQ(service.ask_batch(queries, refused), 0u);
  for (const Answer& answer : refused)
    EXPECT_EQ(answer.status, QueryStatus::kCancelled);
  EXPECT_GE(counter_value("serve.cancelled"), refused.size());
}

// ----------------------------------------------- hot-path allocation audit ---

class ServeAllocTest : public ServeTest {
 protected:
  void SetUp() override {
    ServeTest::SetUp();
    was_enabled_ = obs::alloc_stats_enabled();
  }
  void TearDown() override {
    obs::set_alloc_stats_enabled(was_enabled_);
    ServeTest::TearDown();
  }
  bool was_enabled_ = false;
};

TEST_F(ServeAllocTest, WarmDirectPathDoesNotAllocatePerQuery) {
  TrustService service{expander(300, 9), small_options()};
  const std::vector<Query> queries = query_mix(service.graph(), 4096, 19);
  std::vector<Answer> answers(queries.size());
  // One untimed pass so first-touch work is out of the measured window.
  service.answer_batch(queries, answers);

  obs::set_alloc_stats_enabled(true);
  const obs::ResourceUsage before = obs::resource_usage_now();
  for (const Query& q : queries) answers[0] = service.answer(q);
  service.answer_batch(queries, answers);
  const obs::ResourceUsage after = obs::resource_usage_now();
  obs::set_alloc_stats_enabled(false);

  // 8192 warm queries and not one allocation: the answers are fixed-size
  // and the reads copy no snapshot pointer.
  EXPECT_EQ(after.alloc_count - before.alloc_count, 0u);
}

TEST_F(ServeAllocTest, WarmAskPathsDoNotAllocateAfterTheThreadsFirstCall) {
  TrustService service{expander(300, 9), small_options()};
  const std::vector<Query> queries = query_mix(service.graph(), 4096, 31);
  std::vector<Answer> answers(queries.size());
  // The calling thread's first ask copies the snapshot into its reader
  // slot and maps its serve.query_ms shard.
  (void)service.ask(queries[0]);

  obs::set_alloc_stats_enabled(true);
  const obs::ResourceUsage before = obs::resource_usage_now();
  for (const Query& q : queries) answers[0] = service.ask(q);
  service.ask_batch(queries, answers);
  for (std::size_t at = 0; at < queries.size(); at += 64)
    service.ask_batch(std::span<const Query>{queries}.subspan(at, 64),
                      std::span<Answer>{answers}.subspan(at, 64));
  const obs::ResourceUsage after = obs::resource_usage_now();
  obs::set_alloc_stats_enabled(false);

  EXPECT_EQ(after.alloc_count - before.alloc_count, 0u);
  EXPECT_EQ(latency_samples(), 1 + queries.size() + 1 + queries.size() / 64);
}

}  // namespace
}  // namespace sntrust::serve
