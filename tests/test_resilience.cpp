// Churn and failed-rebuild tests for the serving layer (DESIGN.md §16):
// edge-batch semantics, background rebuilds to fresh answers, a rebuild
// that really fails, and readers racing the snapshot swap, with and
// without reader slots. The race suite is named SnapshotSwapTest so the CI
// tsan pass picks it up by filter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "dynamic/evolution.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "obs/metrics.hpp"
#include "obs/thread_slot.hpp"
#include "serve/trust_service.hpp"
#include "serve/zipf.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust::serve {
namespace {

std::uint64_t counter_value(const char* name) {
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

Graph expander(VertexId n, std::uint64_t seed) {
  return largest_component(barabasi_albert(n, 4, seed)).graph;
}

TrustService::Options service_options() {
  TrustService::Options options;
  options.config.seeds = {0, 1, 2};
  options.config.gatekeeper.seed = 7;
  return options;
}

std::vector<Query> all_kind_queries(VertexId vertex) {
  std::vector<Query> queries;
  for (const QueryKind kind : {QueryKind::kAdmission, QueryKind::kTrustScore,
                               QueryKind::kCoreness, QueryKind::kLandmark}) {
    for (const Defense defense : {Defense::kSybilRank, Defense::kGateKeeper}) {
      Query q;
      q.kind = kind;
      q.defense = defense;
      q.vertex = vertex;
      queries.push_back(q);
    }
  }
  return queries;
}

/// Every answer is fresh and byte-equal to the uncached recompute against
/// the service's latest graph.
void expect_fresh_and_identical(TrustService& service,
                                const std::vector<Query>& queries) {
  std::vector<Answer> answers(queries.size());
  service.answer_batch(queries, answers);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(answers[i].status, QueryStatus::kOk);
    ASSERT_FALSE(answers[i].degraded);
    const Answer reference = service.answer_uncached(queries[i]);
    ASSERT_EQ(std::memcmp(&answers[i], &reference, sizeof(Answer)), 0)
        << "query " << i;
  }
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::metrics_reset_all(); }
  void TearDown() override { obs::metrics_reset_all(); }
};

TEST_F(ResilienceTest, ApplyEdgesRefreshesInBackgroundToFreshAnswers) {
  TrustService service{expander(200, 24), service_options()};
  const std::uint64_t epoch0 = service.epoch();
  const std::vector<Query> queries = all_kind_queries(6);
  std::vector<Answer> before(queries.size());
  service.answer_batch(queries, before);

  EdgeBatch batch;
  batch.insertions = {{0, 50}, {3, 60}, {5, 70}, {2, 80}};
  batch.removals = {service.graph().edges().front()};
  service.apply_edges(batch);
  EXPECT_EQ(service.epoch(), epoch0 + 1);
  service.wait_for_refresh();

  // Post-refresh answers are fresh (non-degraded) and bitwise identical to
  // an uncached recompute against the post-churn graph.
  expect_fresh_and_identical(service, queries);

  // Back-to-back churn coalesces into the single-flight refresh and still
  // converges to one consistent, fresh epoch. New vertices attach to the
  // graph: a second component would fail the SybilRank rebuild.
  const VertexId n = service.graph().num_vertices();
  EdgeBatch more;
  more.insertions = {{10, n}, {11, n + 1}};
  service.apply_edges(more);
  EdgeBatch again;
  again.insertions = {{12, n + 2}};
  service.apply_edges(again);
  service.wait_for_refresh();
  EXPECT_EQ(service.epoch(), epoch0 + 3);
  Query probe;
  probe.kind = QueryKind::kCoreness;
  probe.vertex = n + 2;
  const Answer fresh = service.answer(probe);
  EXPECT_EQ(fresh.status, QueryStatus::kOk);
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 0u);
}

TEST_F(ResilienceTest, FailedRebuildKeepsOldSnapshotAnswering) {
  TrustService service{expander(200, 21), service_options()};
  const VertexId n = service.graph().num_vertices();
  std::vector<Query> queries = all_kind_queries(5);
  for (const Query& q : all_kind_queries(n - 1)) queries.push_back(q);
  std::vector<Answer> before(queries.size());
  service.answer_batch(queries, before);

  // {n, n+1} is a second component: SybilRank needs a connected graph, so
  // the rebuild throws and the pre-churn snapshot keeps answering.
  EdgeBatch split;
  split.insertions = {{n, n + 1}};
  service.apply_edges(split);
  service.wait_for_refresh();
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 1u);

  std::vector<Answer> stale(queries.size());
  service.answer_batch(queries, stale);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(stale[i].status, QueryStatus::kOk);
    EXPECT_TRUE(stale[i].degraded);
    EXPECT_GT(stale[i].staleness_ms, 0.0);
    EXPECT_EQ(stale[i].value, before[i].value);
    EXPECT_EQ(stale[i].percentile, before[i].percentile);
    EXPECT_EQ(stale[i].admitted, before[i].admitted);
    EXPECT_EQ(stale[i].source, before[i].source);
  }
  EXPECT_GE(counter_value("serve.degraded"), queries.size());

  // The new vertices are in the latest graph but in no snapshot yet.
  Query fresh_vertex;
  fresh_vertex.kind = QueryKind::kCoreness;
  fresh_vertex.vertex = n;
  EXPECT_EQ(service.answer(fresh_vertex).status, QueryStatus::kUnavailable);
  fresh_vertex.vertex = n + 2;
  EXPECT_EQ(service.answer(fresh_vertex).status, QueryStatus::kInvalidVertex);

  // Joining the component makes the next rebuild succeed.
  EdgeBatch join;
  join.insertions = {{0, n}};
  service.apply_edges(join);
  service.wait_for_refresh();
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 1u);
  expect_fresh_and_identical(service, queries);
  expect_fresh_and_identical(service, all_kind_queries(n + 1));
}

TEST_F(ResilienceTest, ApplyEdgeBatchSemantics) {
  GraphBuilder builder{4};
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const Graph g = builder.build();
  EdgeBatch batch;
  batch.insertions = {{3, 5}, {5, 5}, {0, 1}};  // grows n; self loop dropped
  batch.removals = {{2, 1}, {7, 8}};            // unordered pair; absent edge
  const Graph updated = apply_edge_batch(g, batch);
  EXPECT_EQ(updated.num_vertices(), 6u);
  EXPECT_TRUE(updated.has_edge(0, 1));   // duplicate insert collapsed
  EXPECT_FALSE(updated.has_edge(1, 2));  // removed (normalized order)
  EXPECT_TRUE(updated.has_edge(2, 3));
  EXPECT_TRUE(updated.has_edge(3, 5));
  EXPECT_EQ(updated.num_edges(), 3u);
  // A removal of a pair also inserted in the same batch wins.
  EdgeBatch conflicted;
  conflicted.insertions = {{0, 2}};
  conflicted.removals = {{0, 2}};
  EXPECT_FALSE(apply_edge_batch(g, conflicted).has_edge(0, 2));
}

TEST(SnapshotSwapTest, ReadersRacingTheSwapSeeFreshOrHonestlyStaleAnswers) {
  obs::metrics_reset_all();
  TrustService service{expander(300, 31), service_options()};
  const VertexId n = service.graph().num_vertices();
  // Targets exist in every epoch: batches only add vertices.
  const ZipfGenerator zipf{n, 0.99};
  Rng rng{5};
  std::vector<Query> queries(64);
  for (Query& q : queries) {
    q.vertex = static_cast<VertexId>(zipf(rng));
    q.kind = static_cast<QueryKind>(rng.uniform(4));
    q.defense = rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> bad{0};
  const auto reader = [&] {
    std::vector<Answer> answers(queries.size());
    do {
      service.ask_batch(queries, answers);
      for (const Answer& a : answers) {
        const bool honest =
            a.status == QueryStatus::kOk &&
            (a.degraded ? a.staleness_ms > 0.0 : a.staleness_ms == 0.0);
        if (!honest) bad.fetch_add(1);
      }
      rounds.fetch_add(1);
    } while (!done.load());
  };
  std::thread first{reader};
  std::thread second{reader};
  for (VertexId b = 0; b < 3; ++b) {
    EdgeBatch batch;
    batch.insertions = {{b, n + b}, {n + b, 7 * b + 3}, {4 * b + 1, 9 * b + 2}};
    service.apply_edges(batch);
    service.wait_for_refresh();
  }
  const std::uint64_t seen = rounds.load();
  while (rounds.load() < seen + 2) std::this_thread::yield();
  done.store(true);
  first.join();
  second.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(service.epoch(), 3u);
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 0u);
  service.wait_for_refresh();
  expect_fresh_and_identical(service, queries);
  obs::metrics_reset_all();
}

TEST(SnapshotSwapTest,
     ReadersBeyondTheSlotCountSeeFreshOrHonestlyStaleAnswers) {
  // More readers than thread slots: most answer from their own reader slot,
  // the rest copy the snapshot pointer under the shared lock, and churn
  // batches publish three new snapshots meanwhile. Every answer must be
  // fresh or honestly stale, and the per-thread counter and histogram
  // shards must add up to exactly what the readers did.
  obs::metrics_reset_all();
  TrustService service{expander(300, 37), service_options()};
  const ZipfGenerator zipf{service.graph().num_vertices(), 0.99};
  Rng rng{37};
  std::vector<Query> queries(32);
  for (Query& q : queries) {
    q.vertex = static_cast<VertexId>(zipf(rng));
    q.kind = static_cast<QueryKind>(rng.uniform(4));
    q.defense = rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
  }

  constexpr std::size_t kReaders = obs::kThreadSlots + 8;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> stale_at_end{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      std::vector<Answer> answers(queries.size());
      const auto ask = [&] {
        service.ask_batch(queries, answers);
        for (const Answer& a : answers) {
          const bool honest =
              a.status == QueryStatus::kOk &&
              (a.degraded ? a.staleness_ms > 0.0 : a.staleness_ms == 0.0);
          if (!honest) bad.fetch_add(1);
          if (a.degraded) degraded.fetch_add(1);
        }
        calls.fetch_add(1);
      };
      do {
        ask();
        // Leaves the cores to the rebuild.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      } while (!done.load());
      // The last publish is done: every reader now answers fresh, whether
      // its slot was handed the snapshot or copies it on this call.
      ask();
      for (const Answer& a : answers)
        if (a.degraded) stale_at_end.fetch_add(1);
    });
  for (int round = 0; round < 3; ++round) {
    const EdgeBatch batch = testing::churn_batch(service.graph(), rng, 4, 2);
    service.apply_edges(batch);
    service.wait_for_refresh();
  }
  const std::uint64_t seen = calls.load();
  while (calls.load() < seen + 2 * kReaders) std::this_thread::yield();
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(stale_at_end.load(), 0u);
  EXPECT_EQ(service.epoch(), 3u);
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 0u);
  EXPECT_EQ(counter_value("serve.queries"), calls.load() * queries.size());
  EXPECT_EQ(counter_value("serve.degraded"), degraded.load());
  EXPECT_EQ(obs::metrics_quantile("serve.query_ms").snapshot().count,
            calls.load());
  expect_fresh_and_identical(service, queries);
  obs::metrics_reset_all();
}

TEST(SnapshotSwapTest, HintedRefreshesPublishTheColdBuildWithFewerFloods) {
  // Each refresh passes the published snapshot's GateKeeper budgets as
  // hints. After every churn-shaped batch the answers still equal the
  // uncached recompute, which builds cold, and the refresh floods less
  // than a cold GateKeeper build of the same graph.
  obs::metrics_reset_all();
  TrustService service{expander(400, 33), service_options()};
  obs::Counter& floods = obs::metrics_counter("gatekeeper.ticket_runs");
  Rng rng{33};
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("batch " + std::to_string(round));
    const VertexId n = service.graph().num_vertices();
    const EdgeBatch batch = testing::churn_batch(service.graph(), rng, 8, 4);
    ASSERT_EQ(batch.removals.size(), 4u);
    std::uint64_t before = floods.value();
    service.apply_edges(batch);
    service.wait_for_refresh();
    const std::uint64_t refresh_floods = floods.value() - before;
    before = floods.value();
    (void)compute_gatekeeper_artifact(service.graph(), service.config());
    const std::uint64_t cold_floods = floods.value() - before;
    EXPECT_LT(refresh_floods, cold_floods);
    std::vector<Query> queries = all_kind_queries(n);  // a new leaf
    for (const VertexId v : {batch.removals[0].u, batch.removals[0].v})
      for (const Query& q : all_kind_queries(v)) queries.push_back(q);
    expect_fresh_and_identical(service, queries);
  }
  EXPECT_EQ(service.epoch(), 4u);
  EXPECT_EQ(counter_value("serve.rebuild_failures"), 0u);
  obs::metrics_reset_all();
}

}  // namespace
}  // namespace sntrust::serve
