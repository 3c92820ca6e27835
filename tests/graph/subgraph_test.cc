#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.h"
#include "graph/scc.h"

namespace tdb {
namespace {

TEST(SubgraphTest, ExtractsTriangleFromLargerGraph) {
  // Triangle {1,3,5} plus edges into/out of vertices outside the set.
  CsrGraph g = CsrGraph::FromEdges(
      6, {{1, 3}, {3, 5}, {5, 1}, {0, 1}, {3, 2}, {4, 5}});
  const std::vector<VertexId> members{1, 3, 5};
  InducedSubgraph sub = SubgraphExtractor(g).Extract(members);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);
  EXPECT_EQ(sub.to_global, members);
  // Local ids follow member order: 1->0, 3->1, 5->2.
  EXPECT_TRUE(sub.graph.HasEdge(0, 1));
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_TRUE(sub.graph.HasEdge(2, 0));
  EXPECT_FALSE(sub.graph.HasEdge(1, 0));
}

TEST(SubgraphTest, FullVertexSetReproducesTheGraph) {
  CsrGraph g = GenerateErdosRenyi(40, 160, /*seed=*/3);
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  InducedSubgraph sub = SubgraphExtractor(g).Extract(all);
  ASSERT_EQ(sub.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(sub.graph.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(sub.to_global[v], v);
    auto expected = g.OutNeighbors(v);
    auto actual = sub.graph.OutNeighbors(v);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]);
    }
  }
}

TEST(SubgraphTest, EdgesAreExactlyTheInducedOnes) {
  CsrGraph g = GenerateErdosRenyi(50, 300, /*seed=*/8);
  const std::vector<VertexId> members{2, 3, 5, 7, 11, 13, 17, 19, 23, 29};
  InducedSubgraph sub = SubgraphExtractor(g).Extract(members);
  ASSERT_EQ(sub.graph.num_vertices(), members.size());
  // Every subgraph edge exists in the parent...
  for (EdgeId e = 0; e < sub.graph.num_edges(); ++e) {
    EXPECT_TRUE(g.HasEdge(sub.to_global[sub.graph.EdgeSrc(e)],
                          sub.to_global[sub.graph.EdgeDst(e)]));
  }
  // ...and every parent edge between members exists in the subgraph.
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = 0; j < members.size(); ++j) {
      if (g.HasEdge(members[i], members[j])) {
        EXPECT_TRUE(sub.graph.HasEdge(static_cast<VertexId>(i),
                                      static_cast<VertexId>(j)));
      }
    }
  }
}

TEST(SubgraphTest, ExtractorIsReusableAcrossComponents) {
  // Two disjoint cycles; extract each component with one extractor — the
  // scratch map must fully reset between calls.
  CsrGraph g = CsrGraph::FromEdges(
      7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}});
  SccResult scc = ComputeScc(g);
  ASSERT_EQ(scc.num_components, 2u);
  SubgraphExtractor extractor(g);
  for (VertexId c = 0; c < scc.num_components; ++c) {
    InducedSubgraph sub = extractor.Extract(scc.VerticesOf(c));
    EXPECT_EQ(sub.graph.num_vertices(), scc.component_size[c]);
    EXPECT_EQ(sub.graph.num_edges(), scc.component_size[c]);  // one cycle
  }
}

TEST(SubgraphTest, EmptyMemberSet) {
  CsrGraph g = MakeDirectedCycle(4);
  InducedSubgraph sub = SubgraphExtractor(g).Extract({});
  EXPECT_EQ(sub.graph.num_vertices(), 0u);
  EXPECT_EQ(sub.graph.num_edges(), 0u);
  EXPECT_TRUE(sub.to_global.empty());
}

}  // namespace
}  // namespace tdb
