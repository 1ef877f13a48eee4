#include "gen/datasets.hpp"

#include <gtest/gtest.h>

#include "digraph/digraph.hpp"
#include "gen/generators.hpp"

#include <algorithm>
#include <set>

#include "graph/components.hpp"
#include "graph/stats.hpp"

namespace sntrust {
namespace {

TEST(Datasets, RegistryHasFourteenEntries) {
  EXPECT_EQ(all_datasets().size(), 14u);
}

TEST(Datasets, IdsAreUnique) {
  std::set<std::string> ids;
  for (const DatasetSpec& spec : all_datasets()) ids.insert(spec.id);
  EXPECT_EQ(ids.size(), all_datasets().size());
}

TEST(Datasets, LookupByIdWorks) {
  const DatasetSpec& spec = dataset_by_id("wiki_vote");
  EXPECT_EQ(spec.name, "Wiki-vote");
  EXPECT_EQ(spec.paper_nodes, 7066u);
}

TEST(Datasets, UnknownIdThrows) {
  EXPECT_THROW(dataset_by_id("nope"), std::invalid_argument);
}

TEST(Datasets, FigureSubsetsResolve) {
  for (const auto& ids :
       {figure1_small_ids(), figure1_large_ids(), figure2_small_ids(),
        figure2_large_ids(), figure3_ids(), figure5_ids(), table2_ids()}) {
    EXPECT_FALSE(ids.empty());
    for (const std::string& id : ids) EXPECT_NO_THROW(dataset_by_id(id));
  }
}

TEST(Datasets, GeneratedGraphsAreConnected) {
  // Scaled far down: just checking the largest-component reduction happened.
  for (const char* id : {"wiki_vote", "physics_1", "rice_grad"}) {
    const Graph g = dataset_by_id(id).generate(0.25, 7);
    EXPECT_TRUE(is_connected(g)) << id;
    EXPECT_GT(g.num_edges(), 0u) << id;
  }
}

TEST(Datasets, GenerationIsDeterministic) {
  const DatasetSpec& spec = dataset_by_id("epinion");
  const Graph a = spec.generate(0.05, 9);
  const Graph b = spec.generate(0.05, 9);
  EXPECT_EQ(a, b);
}

TEST(Datasets, ScaleControlsSize) {
  const DatasetSpec& spec = dataset_by_id("slashdot_a");
  const Graph small = spec.generate(0.02, 3);
  const Graph large = spec.generate(0.08, 3);
  EXPECT_GT(large.num_vertices(), 2 * small.num_vertices());
}

TEST(Datasets, BadScaleThrows) {
  EXPECT_THROW(dataset_by_id("wiki_vote").generate(0.0, 1),
               std::invalid_argument);
}

TEST(Datasets, SizeRoughlyTracksPaperAtFullScale) {
  // Small datasets generate at full paper scale; sizes should be within a
  // factor of the reported node counts (largest component shrinks a bit).
  const DatasetSpec& spec = dataset_by_id("physics_1");
  const Graph g = spec.generate(1.0, 1);
  EXPECT_GT(g.num_vertices(), spec.paper_nodes / 3);
  EXPECT_LT(g.num_vertices(), spec.paper_nodes * 2);
}

TEST(Datasets, SlowClassHasHigherClusteringThanFastClass) {
  // The substitution's load-bearing distinction: co-authorship analogues are
  // clique-heavy, interaction analogues are randomly wired.
  const Graph slow = dataset_by_id("physics_1").generate(0.5, 5);
  const Graph fast = dataset_by_id("wiki_vote").generate(0.5, 5);
  EXPECT_GT(average_local_clustering(slow),
            1.5 * average_local_clustering(fast));
}

TEST(Datasets, MixingClassLabels) {
  EXPECT_EQ(to_string(MixingClass::kFast), "fast");
  EXPECT_EQ(to_string(MixingClass::kModerate), "moderate");
  EXPECT_EQ(to_string(MixingClass::kSlow), "slow");
  EXPECT_EQ(dataset_by_id("physics_2").expected_class, MixingClass::kSlow);
  EXPECT_EQ(dataset_by_id("epinion").expected_class, MixingClass::kFast);
}

TEST(PowerlawDegrees, RespectsBounds) {
  const auto degrees = powerlaw_degrees(5000, 2.2, 3, 200, 13);
  EXPECT_EQ(degrees.size(), 5000u);
  for (const VertexId d : degrees) {
    EXPECT_GE(d, 3u);
    EXPECT_LE(d, 200u);
  }
}

TEST(PowerlawDegrees, HeavyTailPresent) {
  const auto degrees = powerlaw_degrees(5000, 2.0, 2, 1000, 17);
  const VertexId max_degree = *std::max_element(degrees.begin(), degrees.end());
  EXPECT_GT(max_degree, 50u);
}

TEST(PowerlawDegrees, BadParamsThrow) {
  EXPECT_THROW(powerlaw_degrees(10, 1.0, 2, 5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_degrees(10, 2.0, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(powerlaw_degrees(10, 2.0, 6, 5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace sntrust
