#include "graph/graph_stats.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace tdb {
namespace {

TEST(GraphStatsTest, DirectedCycle) {
  GraphStats s = ComputeStats(MakeDirectedCycle(10));
  EXPECT_EQ(s.num_vertices, 10u);
  EXPECT_EQ(s.num_edges, 10u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_EQ(s.max_out_degree, 1u);
  EXPECT_EQ(s.max_in_degree, 1u);
  EXPECT_DOUBLE_EQ(s.reciprocity, 0.0);
  EXPECT_EQ(s.num_bidegree_vertices, 10u);
  // 20 bytes per edge + 16 per offset pair; the service's base_bytes
  // gauge reads the same total from CsrGraph::memory_bytes.
  EXPECT_EQ(s.total_bytes(), 20u * 10 + 16u * 11);
  EXPECT_EQ(MakeDirectedCycle(10).memory_bytes(), s.total_bytes());
}

TEST(GraphStatsTest, CompleteDigraphIsFullyReciprocal) {
  GraphStats s = ComputeStats(MakeCompleteDigraph(5));
  EXPECT_EQ(s.num_edges, 20u);
  EXPECT_DOUBLE_EQ(s.reciprocity, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_degree, 8.0);
}

TEST(GraphStatsTest, PathHasSourcesAndSinks) {
  GraphStats s = ComputeStats(MakeDirectedPath(4));
  EXPECT_EQ(s.num_edges, 3u);
  // Interior vertices only: the source lacks in-, the sink out-degree.
  EXPECT_EQ(s.num_bidegree_vertices, 2u);
}

TEST(GraphStatsTest, EmptyGraph) {
  GraphStats s = ComputeStats(CsrGraph());
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 0.0);
}

TEST(GraphStatsTest, ReciprocityTracksGeneratorParameter) {
  PowerLawParams low;
  low.n = 2000;
  low.m = 10000;
  low.reciprocity = 0.05;
  low.seed = 11;
  PowerLawParams high = low;
  high.reciprocity = 0.9;
  const double r_low = ComputeStats(GeneratePowerLaw(low)).reciprocity;
  const double r_high = ComputeStats(GeneratePowerLaw(high)).reciprocity;
  EXPECT_LT(r_low, 0.3);
  EXPECT_GT(r_high, 0.6);
}

TEST(GraphStatsTest, ToStringMentionsKeyFields) {
  std::string s = ComputeStats(MakeDirectedCycle(3)).ToString();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=3"), std::string::npos);
}

}  // namespace
}  // namespace tdb
