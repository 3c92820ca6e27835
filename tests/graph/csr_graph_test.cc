#include "graph/csr_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "graph/generators.h"
#include "util/rng.h"

namespace tdb {
namespace {

CsrGraph Diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
  return CsrGraph::FromEdges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {3, 0}});
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraphTest, BasicCounts) {
  CsrGraph g = Diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(CsrGraphTest, OutNeighborsSorted) {
  CsrGraph g = Diamond();
  auto n0 = g.OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 1u);
}

TEST(CsrGraphTest, InNeighborsSorted) {
  CsrGraph g = Diamond();
  auto n3 = g.InNeighbors(3);
  ASSERT_EQ(n3.size(), 2u);
  EXPECT_EQ(n3[0], 1u);
  EXPECT_EQ(n3[1], 2u);
  EXPECT_EQ(g.in_degree(0), 1u);
}

TEST(CsrGraphTest, HasEdgeAndFindEdge) {
  CsrGraph g = Diamond();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(3, 0));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_EQ(g.FindEdge(1, 0), kInvalidEdge);
  const EdgeId e = g.FindEdge(0, 2);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.EdgeSrc(e), 0u);
  EXPECT_EQ(g.EdgeDst(e), 2u);
}

TEST(CsrGraphTest, CanonicalEdgeIdsAreOutCsrPositions) {
  CsrGraph g = Diamond();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.OutEdgeBegin(v); e < g.OutEdgeEnd(v); ++e) {
      EXPECT_EQ(g.EdgeSrc(e), v);
      EXPECT_EQ(g.FindEdge(v, g.EdgeDst(e)), e);
    }
  }
}

TEST(CsrGraphTest, InEdgeIdsCrossReferenceOutCsr) {
  for (const CsrGraph& g :
       {Diamond(), GenerateErdosRenyi(60, 400, /*seed=*/3)}) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto ranks = g.InEdgeRanks(v);
      auto in_srcs = g.InNeighbors(v);
      ASSERT_EQ(ranks.size(), in_srcs.size());
      for (size_t i = 0; i < ranks.size(); ++i) {
        const EdgeId id = g.OutEdgeBegin(in_srcs[i]) + ranks[i];
        EXPECT_EQ(id, g.FindEdge(in_srcs[i], v));
        EXPECT_EQ(g.EdgeSrc(id), in_srcs[i]);
        EXPECT_EQ(g.EdgeDst(id), v);
      }
    }
  }
}

TEST(CsrGraphTest, EdgeSrcSkipsEmptyOutLists) {
  // Vertices 0, 2, 3 and 6 have no out-edges: empty out-lists at the
  // first vertex, in the middle (two in a row) and at the last vertex.
  const CsrGraph g = CsrGraph::FromEdges(
      7, {{1, 0}, {1, 2}, {4, 5}, {5, 1}, {5, 4}, {5, 6}});
  ASSERT_EQ(g.out_degree(0), 0u);
  ASSERT_EQ(g.out_degree(6), 0u);
  const VertexId expected_src[] = {1, 1, 4, 5, 5, 5};
  ASSERT_EQ(g.num_edges(), std::size(expected_src));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.EdgeSrc(e), expected_src[e]) << "edge " << e;
  }
  // A lone edge out of the last vertex, after an all-empty prefix.
  const CsrGraph tail = CsrGraph::FromEdges(4, {{3, 0}});
  EXPECT_EQ(tail.EdgeSrc(0), 3u);
  // And out of the first vertex, before an all-empty suffix.
  const CsrGraph head = CsrGraph::FromEdges(4, {{0, 3}});
  EXPECT_EQ(head.EdgeSrc(0), 0u);
}

TEST(CsrGraphTest, EdgeSrcMatchesOutRangesOnRandomGraphs) {
  // Sparse enough that many vertices have empty out-lists.
  for (const uint64_t seed : {1, 2, 3}) {
    const CsrGraph g = GenerateErdosRenyi(300, 200, seed);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (EdgeId e = g.OutEdgeBegin(v); e < g.OutEdgeEnd(v); ++e) {
        ASSERT_EQ(g.EdgeSrc(e), v);
      }
    }
  }
}

TEST(CsrGraphTest, MemoryBytesIsTwelvePerEdgePlusOffsets) {
  const CsrGraph g = GenerateErdosRenyi(100, 800, /*seed=*/9);
  const uint64_t m = g.num_edges();
  EXPECT_EQ(g.memory_bytes(), 12 * m + 16 * (100 + 1));
  EXPECT_EQ(CsrGraph().memory_bytes(), 16u);
}

TEST(CsrGraphTest, DropsSelfLoopsByDefault) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(CsrGraphTest, KeepsSelfLoopsOnRequest) {
  CsrGraph g =
      CsrGraph::FromEdges(2, {{0, 0}, {0, 1}}, /*keep_self_loops=*/true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(CsrGraphTest, DeduplicatesParallelEdges) {
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1}, {0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
}

TEST(CsrGraphTest, ReciprocalEdgeCount) {
  CsrGraph none = MakeDirectedCycle(5);
  EXPECT_EQ(none.CountReciprocalEdges(), 0u);
  CsrGraph all = MakeCompleteDigraph(4);
  EXPECT_EQ(all.CountReciprocalEdges(), all.num_edges());
  CsrGraph mixed = CsrGraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_EQ(mixed.CountReciprocalEdges(), 2u);
}

TEST(CsrGraphTest, InOutDegreesBalance) {
  CsrGraph g = GenerateErdosRenyi(200, 2000, /*seed=*/5);
  EdgeId out_sum = 0;
  EdgeId in_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out_sum += g.out_degree(v);
    in_sum += g.in_degree(v);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(CsrGraphTest, RandomGraphAdjacencyConsistency) {
  CsrGraph g = GenerateErdosRenyi(100, 800, /*seed=*/9);
  // Every out-edge appears exactly once as an in-edge.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      auto in = g.InNeighbors(v);
      EXPECT_TRUE(std::binary_search(in.begin(), in.end(), u));
    }
  }
}

}  // namespace
}  // namespace tdb
