#include "graph/scc.h"

#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/timer.h"

namespace tdb {
namespace {

/// Reference reachability for cross-checking component membership.
std::vector<uint8_t> ReachableFrom(const CsrGraph& g, VertexId s) {
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  std::queue<VertexId> q;
  q.push(s);
  seen[s] = 1;
  while (!q.empty()) {
    VertexId u = q.front();
    q.pop();
    for (VertexId w : g.OutNeighbors(u)) {
      if (!seen[w]) {
        seen[w] = 1;
        q.push(w);
      }
    }
  }
  return seen;
}

/// The random shapes the membership check runs over:
/// Erdos-Renyi at five seeds, a dense graph (one big SCC plus fringe), a
/// sparse one (many components) and a power-law graph.
std::vector<std::pair<std::string, CsrGraph>> RandomSweep() {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    graphs.emplace_back("erdos-" + std::to_string(seed),
                        GenerateErdosRenyi(200, 700, seed));
  }
  graphs.emplace_back("dense", GenerateErdosRenyi(400, 2400, /*seed=*/11));
  graphs.emplace_back("sparse", GenerateErdosRenyi(500, 500, /*seed=*/13));
  PowerLawParams p;
  p.n = 300;
  p.m = 1200;
  p.reciprocity = 0.25;
  p.seed = 17;
  graphs.emplace_back("powerlaw", GeneratePowerLaw(p));
  return graphs;
}

TEST(SccTest, SingleCycleIsOneComponent) {
  SccResult r = ComputeScc(MakeDirectedCycle(7));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.SizeOf(0), 7u);
  EXPECT_EQ(ComputeScc(MakeDirectedCycle(5000)).num_components, 1u);
  EXPECT_EQ(ComputeScc(GenerateChordedCycle(2000, 4, /*seed=*/23))
                .num_components,
            1u);
}

TEST(SccTest, DagIsAllSingletons) {
  for (const CsrGraph& g : {MakeDirectedPath(6), MakeLayeredFunnel(8, 6)}) {
    const SccResult r = ComputeScc(g);
    EXPECT_EQ(r.num_components, g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(r.SizeOf(v), 1u);
  }
}

TEST(SccTest, TwoCyclesJoinedByBridge) {
  // 0->1->2->0 and 3->4->5->3 with bridge 2->3: two non-trivial SCCs.
  CsrGraph g = CsrGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});
  SccResult r = ComputeScc(g);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[0], r.component[2]);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_NE(r.component[0], r.component[3]);
}

TEST(SccTest, ComponentSizesSumToVertexCount) {
  CsrGraph g = GenerateErdosRenyi(300, 900, /*seed=*/21);
  SccResult r = ComputeScc(g);
  VertexId total = 0;
  for (VertexId s : r.component_size) total += s;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(SccTest, MembershipMatchesMutualReachability) {
  for (const auto& [label, g] : RandomSweep()) {
    const SccResult r = ComputeScc(g);
    std::vector<std::vector<uint8_t>> reach;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      reach.push_back(ReachableFrom(g, v));
    }
    uint64_t mismatches = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const bool mutual = reach[u][v] && reach[v][u];
        if ((r.component[u] == r.component[v]) != mutual) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << label;
  }
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  // Iterative Tarjan must handle paths far deeper than the C stack.
  CsrGraph g = MakeDirectedPath(500000);
  SccResult r = ComputeScc(g);
  EXPECT_EQ(r.num_components, 500000u);
}

TEST(SccTest, VertexListsPartitionTheGraph) {
  CsrGraph g = GenerateErdosRenyi(80, 160, /*seed=*/9);
  SccResult r = ComputeScc(g);
  ASSERT_EQ(r.vertex_offsets.size(), r.num_components + 1u);
  EXPECT_EQ(r.vertex_offsets.front(), 0u);
  EXPECT_EQ(r.vertex_offsets.back(), g.num_vertices());
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  for (VertexId c = 0; c < r.num_components; ++c) {
    auto members = r.VerticesOf(c);
    ASSERT_EQ(members.size(), r.component_size[c]);
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(r.component[members[i]], c);
      if (i > 0) EXPECT_LT(members[i - 1], members[i]);  // sorted ascending
      EXPECT_FALSE(seen[members[i]]);
      seen[members[i]] = 1;
    }
  }
}

TEST(SccTest, SelfLoopsIsolatedAndEmpty) {
  // Self-loops do not merge components: a looped vertex is a singleton
  // unless it also sits on a longer cycle.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0},  // triangle
                             {3, 3},                  // pure self-loop
                             {4, 5}, {5, 4}, {4, 4},  // 2-cycle + loop
                             {6, 7}};                 // 8, 9 isolated
  CsrGraph g = CsrGraph::FromEdges(10, std::move(edges),
                                   /*keep_self_loops=*/true);
  const SccResult r = ComputeScc(g);
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_EQ(r.SizeOf(0), 3u);
  EXPECT_EQ(r.SizeOf(3), 1u);
  EXPECT_EQ(r.SizeOf(4), 2u);
  EXPECT_EQ(r.SizeOf(6), 1u);
  EXPECT_EQ(r.SizeOf(9), 1u);

  const SccResult empty = ComputeScc(CsrGraph());
  EXPECT_EQ(empty.num_components, 0u);
  EXPECT_EQ(empty.vertex_offsets, std::vector<VertexId>{0});
  EXPECT_EQ(ComputeScc(CsrGraph::FromEdges(64, {})).num_components, 64u);
}

TEST(SccTest, CanonicalIdsAreMinMemberOrdered) {
  // 3-cycle {2,5,7}, 2-cycle {0,9}, singletons elsewhere: component 0
  // must be the one containing vertex 0, and ids ascend with minimum
  // members.
  CsrGraph g = CsrGraph::FromEdges(
      10, {{2, 5}, {5, 7}, {7, 2}, {0, 9}, {9, 0}, {1, 2}});
  const SccResult r = ComputeScc(g);
  ASSERT_EQ(r.num_components, 7u);
  for (VertexId c = 1; c < r.num_components; ++c) {
    EXPECT_GT(r.VerticesOf(c).front(), r.VerticesOf(c - 1).front());
  }
  EXPECT_EQ(r.component[0], 0u);
  EXPECT_EQ(r.component[9], 0u);
}

TEST(SccTest, ExpiredDeadlineTimesOut) {
  CsrGraph g = GenerateErdosRenyi(300, 900, /*seed=*/7);
  Deadline expired = Deadline::AfterSeconds(0);
  SccOptions options;
  options.deadline = &expired;
  const SccResult r = CondenseScc(g, options);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_TRUE(r.component.empty());
  EXPECT_TRUE(r.vertices.empty());
}

}  // namespace
}  // namespace tdb
