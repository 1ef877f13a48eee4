#include "dynamic/evolution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

TEST(GrowthTrace, SnapshotMonotoneInSize) {
  const GrowthTrace trace = preferential_attachment_trace(300, 3, 1);
  const Graph small = trace.snapshot(100);
  const Graph large = trace.snapshot(300);
  EXPECT_EQ(small.num_vertices(), 100u);
  EXPECT_EQ(large.num_vertices(), 300u);
  EXPECT_LT(small.num_edges(), large.num_edges());
  // Prefix property: every early edge survives into the larger snapshot.
  for (const Edge& e : small.edges())
    EXPECT_TRUE(large.has_edge(e.u, e.v));
}

TEST(GrowthTrace, FinalSnapshotMatchesBaModel) {
  const GrowthTrace trace = preferential_attachment_trace(200, 3, 2);
  const Graph g = trace.snapshot(200);
  // Same structural signature as barabasi_albert: every non-seed vertex has
  // >= 3 edges and the graph is connected.
  EXPECT_TRUE(is_connected(g));
  for (VertexId v = 4; v < 200; ++v) EXPECT_GE(g.degree(v), 3u);
}

TEST(GrowthTrace, OversizedSnapshotThrows) {
  const GrowthTrace trace = preferential_attachment_trace(100, 2, 3);
  EXPECT_THROW(trace.snapshot(101), std::invalid_argument);
}

TEST(GrowthTrace, BadEdgeRangeThrows) {
  EXPECT_THROW(GrowthTrace(5, {{0, 9}}), std::invalid_argument);
}

TEST(GrowthTrace, BadBaParamsThrow) {
  EXPECT_THROW(preferential_attachment_trace(3, 3, 1), std::invalid_argument);
  EXPECT_THROW(preferential_attachment_trace(10, 0, 1), std::invalid_argument);
}

TEST(AffiliationTrace, ProducesClusteredPrefixes) {
  const GrowthTrace trace = affiliation_trace(600, 8, 1.2, 4);
  const Graph snapshot = largest_component(trace.snapshot(600)).graph;
  EXPECT_GT(snapshot.num_vertices(), 100u);
  EXPECT_GT(average_local_clustering(snapshot), 0.2);
}

TEST(AffiliationTrace, BadParamsThrow) {
  EXPECT_THROW(affiliation_trace(8, 2, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(affiliation_trace(100, 0, 1.0, 1), std::invalid_argument);
}

TEST(MeasureEvolution, PointsPerSnapshot) {
  const GrowthTrace trace = preferential_attachment_trace(500, 3, 5);
  EvolutionOptions options;
  options.expansion_sources = 100;
  const auto points = measure_evolution(trace, {100, 250, 500}, options);
  ASSERT_EQ(points.size(), 3u);
  for (const EvolutionPoint& p : points) {
    EXPECT_GT(p.nodes, 0u);
    EXPECT_GT(p.mu, 0.0);
    EXPECT_LT(p.mu, 1.0);
    EXPECT_GE(p.degeneracy, 3u);
    EXPECT_GT(p.min_expansion_factor, 0.0);
  }
  EXPECT_LT(points[0].nodes, points[2].nodes);
}

TEST(MeasureEvolution, BaMixingStaysFastWhileGrowing) {
  // The open-problem probe: preferential attachment keeps its expander
  // character as it grows (mu does not drift toward 1).
  const GrowthTrace trace = preferential_attachment_trace(800, 4, 6);
  const auto points = measure_evolution(trace, {200, 800});
  EXPECT_LT(points[1].mu, points[0].mu + 0.1);
  EXPECT_EQ(points[1].max_core_count, 1u);
}

TEST(MeasureEvolution, UnsortedSizesThrow) {
  const GrowthTrace trace = preferential_attachment_trace(100, 2, 7);
  EXPECT_THROW(measure_evolution(trace, {80, 40}), std::invalid_argument);
}

TEST(MeasureEvolution, TinySnapshotThrows) {
  const GrowthTrace trace = preferential_attachment_trace(100, 2, 8);
  EXPECT_THROW(measure_evolution(trace, {8}), std::invalid_argument);
}

// The reference for apply_edge_batch: a whole rebuild through GraphBuilder,
// which drops self loops and collapses duplicates, of every surviving edge
// and every insertion not removed in the same batch.
Graph rebuilt_with_batch(const Graph& g, const EdgeBatch& batch) {
  VertexId n = g.num_vertices();
  for (const Edge& e : batch.insertions) n = std::max({n, e.u + 1, e.v + 1});
  std::set<std::pair<VertexId, VertexId>> removed;
  for (const Edge& e : batch.removals) removed.insert(std::minmax(e.u, e.v));
  const auto kept = [&](const Edge& e) {
    return removed.count(std::minmax(e.u, e.v)) == 0;
  };
  GraphBuilder builder{n};
  for (const Edge& e : g.edges())
    if (kept(e)) builder.add_edge(e.u, e.v);
  for (const Edge& e : batch.insertions)
    if (kept(e)) builder.add_edge(e.u, e.v);
  return builder.build();
}

TEST(ApplyEdgeBatch, MatchesBuilderRebuild) {
  Graph g = barabasi_albert(300, 3, 17);
  Rng rng{17};
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<Edge> existing = g.edges();
    const VertexId n = g.num_vertices();
    const auto any_vertex = [&] {
      return static_cast<VertexId>(rng.uniform(n));
    };
    EdgeBatch batch;
    for (int i = 0; i < 24; ++i) {
      const Edge e = existing[rng.uniform(existing.size())];
      batch.removals.push_back(rng.bernoulli(0.5) ? e : Edge{e.v, e.u});
    }
    for (int i = 0; i < 8; ++i)  // absent, some past the universe
      batch.removals.push_back(
          {any_vertex(), rng.bernoulli(0.75) ? any_vertex() : n + 50});
    for (int i = 0; i < 24; ++i)
      batch.insertions.push_back({any_vertex(), any_vertex()});
    for (int i = 0; i < 4; ++i) {
      const VertexId v = any_vertex();
      batch.insertions.push_back({v, v});  // self loop
    }
    for (int i = 0; i < 8; ++i)  // duplicate, possibly reversed
      batch.insertions.push_back(
          batch.insertions[rng.uniform(batch.insertions.size())]);
    for (int i = 0; i < 4; ++i) {  // inserted and removed: the removal wins
      const Edge e{any_vertex(), any_vertex()};
      batch.insertions.push_back(e);
      batch.removals.push_back({e.v, e.u});
    }
    for (int i = 0; i < 4; ++i)  // existing edges inserted again
      batch.insertions.push_back(existing[rng.uniform(existing.size())]);
    if (round % 4 == 0)  // new vertices past a gap
      batch.insertions.push_back(
          {any_vertex(), n + 3 + static_cast<VertexId>(rng.uniform(5))});
    const Graph merged = apply_edge_batch(g, batch);
    ASSERT_TRUE(merged == rebuilt_with_batch(g, batch));
    g = merged;
  }
}

}  // namespace
}  // namespace sntrust
