#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.edges().empty());
}

TEST(Graph, PathBasics) {
  const Graph g = path_graph(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NeighborsAreSorted) {
  const Graph g = star_graph(6);
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 5u);
  for (std::size_t i = 1; i < nbrs.size(); ++i)
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
}

TEST(Graph, EdgesListedOnceWithUlessV) {
  const Graph g = cycle_graph(4);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) EXPECT_LT(e.u, e.v);
}

TEST(Graph, HandshakeLemma) {
  for (const Graph& g :
       {path_graph(10), cycle_graph(9), star_graph(7), complete_graph(6)}) {
    std::uint64_t degree_sum = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
    EXPECT_EQ(degree_sum, 2 * g.num_edges());
  }
}

TEST(Graph, OutOfRangeVertexThrows) {
  const Graph g = path_graph(3);
  EXPECT_THROW(g.degree(3), std::out_of_range);
  EXPECT_THROW(g.neighbors(3), std::out_of_range);
  EXPECT_THROW(g.has_edge(0, 3), std::out_of_range);
}

TEST(Graph, CsrValidationRejectsSelfLoop) {
  // Vertices 0 and 1 each adjacent to themselves: an even half-edge count,
  // so the header passes and the row check must catch it.
  EXPECT_THROW(Graph({0, 1, 2}, {0, 1}), std::invalid_argument);
}

TEST(Graph, CsrValidationRejectsUnsorted) {
  // 0 -> {2, 1}, symmetric halves present but unsorted.
  EXPECT_THROW(Graph({0, 2, 3, 4}, {2, 1, 0, 0}), std::invalid_argument);
}

TEST(Graph, CsrValidationRejectsAsymmetry) {
  // 0->1 and 1->2 without their mirrors; 0-2 mirrored. Four half-edges, so
  // the header passes and the mirror check must catch it.
  EXPECT_THROW(Graph({0, 2, 3, 4}, {1, 2, 2, 0}), std::invalid_argument);
}

TEST(Graph, CsrValidationRejectsOutOfRangeTarget) {
  EXPECT_THROW(Graph({0, 1, 2}, {5, 0}), std::invalid_argument);
}

TEST(Graph, CsrValidationRejectsBadOffsets) {
  EXPECT_THROW(Graph({1, 2}, {0, 1}), std::invalid_argument);   // offsets[0] != 0
  EXPECT_THROW(Graph({0, 1}, {0, 1}), std::invalid_argument);   // end mismatch
  EXPECT_THROW(Graph({}, {}), std::invalid_argument);           // empty offsets
}

TEST(Graph, EditedRowCheckRejectsWhatTheFullCheckRejects) {
  // The path 0-1-2-3 with rows 1 and 3 edited. Each broken edit fails both
  // the edited-row check and the full one.
  using Rows = std::vector<VertexId>;
  const auto both_reject = [](std::vector<EdgeIndex> offsets,
                              std::vector<VertexId> targets,
                              const Rows& edited) {
    EXPECT_THROW(Graph(offsets, targets), std::invalid_argument);
    EXPECT_THROW(Graph::with_edited_rows(offsets, targets, edited),
                 std::invalid_argument);
  };
  // Edge 1-3 added.
  const Graph added = Graph::with_edited_rows(
      {0, 1, 4, 6, 8}, {1, 0, 2, 3, 1, 3, 1, 2}, Rows{1, 3});
  EXPECT_EQ(added, Graph({0, 1, 4, 6, 8}, {1, 0, 2, 3, 1, 3, 1, 2}));
  // Row 1 unsorted.
  both_reject({0, 1, 4, 6, 8}, {1, 0, 3, 2, 1, 3, 1, 2}, Rows{1, 3});
  // Self loops at 1 and 3.
  both_reject({0, 1, 4, 6, 8}, {1, 0, 1, 2, 1, 3, 2, 3}, Rows{1, 3});
  // Row 0 gains 2 and 3, whose rows do not mirror them.
  both_reject({0, 3, 5, 7, 8}, {1, 2, 3, 0, 2, 1, 3, 2}, Rows{0});
  // Offsets that decrease.
  both_reject({0, 3, 1, 6, 8}, {1, 0, 2, 3, 1, 3, 1, 2}, Rows{1, 3});
  // A row past the vertex count.
  EXPECT_THROW(Graph::with_edited_rows({0, 1, 3, 5, 6}, {1, 0, 2, 1, 3, 2},
                                       Rows{4}),
               std::invalid_argument);
}

TEST(Graph, ValidCsrAccepted) {
  // Triangle in CSR form.
  const Graph g({0, 2, 4, 6}, {1, 2, 0, 2, 0, 1});
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Graph, EqualityComparesStructure) {
  EXPECT_EQ(path_graph(4), path_graph(4));
  EXPECT_NE(path_graph(4), cycle_graph(4));
}

TEST(Graph, CompleteGraphDegrees) {
  const Graph g = complete_graph(8);
  EXPECT_EQ(g.num_edges(), 28u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 7u);
}

}  // namespace
}  // namespace sntrust
