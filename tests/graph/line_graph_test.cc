#include "graph/line_graph.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "search/cycle_enumerator.h"

namespace tdb {
namespace {

/// L(G) of the whole graph.
Status BuildLineGraph(const CsrGraph& g, LineGraph* out,
                      EdgeId max_arcs = EdgeId{1} << 27) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return BuildLineGraph(g, all, out, max_arcs);
}

TEST(LineGraphTest, ArcCountFormula) {
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(MakeDirectedCycle(5), &l).ok());
  EXPECT_EQ(l.graph.num_edges(), 5u);  // in(v)*out(v) = 1 each
  // Each vertex of K4: in=3, out=3 -> 9 per vertex, 36 total.
  ASSERT_TRUE(BuildLineGraph(MakeCompleteDigraph(4), &l).ok());
  EXPECT_EQ(l.graph.num_edges(), 36u);
}

TEST(LineGraphTest, MembersRestrictNodesToInnerEdgesInCanonicalOrder) {
  // 0 <-> 1 -> 2 -> 0 plus 2 -> 3 -> 1: members {0, 1, 2} keep the
  // triangle and the 0 <-> 1 pair and drop every edge touching 3.
  CsrGraph g = CsrGraph::FromEdges(
      4, {{0, 1}, {1, 0}, {1, 2}, {2, 0}, {2, 3}, {3, 1}});
  const std::vector<VertexId> members = {0, 1, 2};
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, members, &l).ok());
  const std::vector<EdgeId> want = {g.FindEdge(0, 1), g.FindEdge(1, 0),
                                    g.FindEdge(1, 2), g.FindEdge(2, 0)};
  EXPECT_EQ(l.base_edge, want);
  // Arcs through pivots 0, 1, 2: (2,0)->(0,1), (0,1)->(1,0), (0,1)->(1,2),
  // (1,0)->(0,1), (1,2)->(2,0).
  EXPECT_EQ(l.graph.num_edges(), 5u);
  EXPECT_TRUE(l.graph.HasEdge(3, 0));
  EXPECT_TRUE(l.graph.HasEdge(0, 2));
  EXPECT_FALSE(l.graph.HasEdge(2, 1));
}

TEST(LineGraphTest, NodesAreBaseEdges) {
  CsrGraph g = MakeDirectedCycle(4);
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, &l).ok());
  EXPECT_EQ(l.graph.num_vertices(), g.num_edges());
  EXPECT_EQ(l.graph.num_edges(), 4u);
}

TEST(LineGraphTest, ArcsConnectConsecutiveEdges) {
  // 0 -> 1 -> 2 and 1 -> 3.
  CsrGraph g = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {1, 3}});
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, &l).ok());
  const EdgeId e01 = g.FindEdge(0, 1);
  const EdgeId e12 = g.FindEdge(1, 2);
  const EdgeId e13 = g.FindEdge(1, 3);
  EXPECT_TRUE(l.graph.HasEdge(static_cast<VertexId>(e01),
                              static_cast<VertexId>(e12)));
  EXPECT_TRUE(l.graph.HasEdge(static_cast<VertexId>(e01),
                              static_cast<VertexId>(e13)));
  EXPECT_FALSE(l.graph.HasEdge(static_cast<VertexId>(e12),
                               static_cast<VertexId>(e13)));
  // Pivot of the arc e01 -> e12 is the shared vertex 1.
  EXPECT_EQ(g.EdgeDst(l.base_edge[e01]), 1u);
}

TEST(LineGraphTest, CycleLengthsArePreserved) {
  // A directed triangle in G maps to a 3-cycle in L(G).
  CsrGraph g = MakeDirectedCycle(3);
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, &l).ok());
  CycleConstraint c{.max_hops = 3, .min_len = 3};
  EXPECT_EQ(CountConstrainedCycles(g, c, 100), 1u);
  EXPECT_EQ(CountConstrainedCycles(l.graph, c, 100), 1u);
}

TEST(LineGraphTest, TwoCyclesMapToTwoCycles) {
  // Base 2-cycle maps to an L(G) 2-cycle; with min_len 3 neither counts,
  // keeping the DARC-DV reduction consistent with the problem definition.
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, &l).ok());
  CycleConstraint two{.max_hops = 5, .min_len = 2};
  CycleConstraint three{.max_hops = 5, .min_len = 3};
  EXPECT_EQ(CountConstrainedCycles(l.graph, two, 100), 1u);
  EXPECT_EQ(CountConstrainedCycles(l.graph, three, 100), 0u);
}

TEST(LineGraphTest, FigureEightCreatesExtraCycle) {
  // Two triangles sharing vertex 0: the base graph has two simple
  // 3-cycles, but L(G) additionally has the length-6 "figure eight"
  // (distinct edges, repeated vertex) — the documented over-covering
  // source of DARC-DV.
  CsrGraph g = CsrGraph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}});
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(g, &l).ok());
  CycleConstraint c6{.max_hops = 6, .min_len = 3};
  EXPECT_EQ(CountConstrainedCycles(g, c6, 100), 2u);
  EXPECT_EQ(CountConstrainedCycles(l.graph, c6, 100), 3u);
}

TEST(LineGraphTest, BudgetExceededIsResourceExhausted) {
  CsrGraph g = MakeCompleteDigraph(10);  // 810 arcs
  LineGraph l;
  Status s = BuildLineGraph(g, &l, /*max_arcs=*/100);
  EXPECT_TRUE(s.IsResourceExhausted());
}

}  // namespace
}  // namespace tdb
