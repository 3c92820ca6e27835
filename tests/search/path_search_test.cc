// The bounded DFS kernel, block instantiation (BlockDfs): the block
// bounds on top of the plain loop, whose own cases are in
// cycle_finder_test.cc.
#include "search/path_search.h"

#include <gtest/gtest.h>

#include "graph/fixtures.h"
#include "graph/generators.h"

namespace tdb {
namespace {

CycleConstraint K(uint32_t k, uint32_t min_len = 3) {
  return CycleConstraint{.max_hops = k, .min_len = min_len};
}

TEST(BlockDfsTest, FindsTriangle) {
  CsrGraph g = MakeDirectedCycle(3);
  BlockDfs s(g);
  std::vector<VertexId> cycle;
  EXPECT_EQ(s.FindCycleThrough(0, K(3), nullptr, &cycle),
            SearchOutcome::kFound);
  EXPECT_EQ(cycle, (std::vector<VertexId>{0, 1, 2}));
}

TEST(BlockDfsTest, HopWindowMatchesPlainDfs) {
  CsrGraph g = MakeDirectedCycle(6);
  BlockDfs s(g);
  EXPECT_EQ(s.FindCycleThrough(0, K(5), nullptr, nullptr),
            SearchOutcome::kNotFound);
  EXPECT_EQ(s.FindCycleThrough(0, K(6), nullptr, nullptr),
            SearchOutcome::kFound);
}

// The soundness regression from docs/ARCHITECTURE.md, "The 2-cycle
// exclusion": with 2-cycles excluded, a depth-1 vertex owning an edge
// back to the start must remain re-enterable at greater depth. A naive
// failure bound k-depth+1 loses the cycle s->a->u->s here.
TEST(BlockDfsTest, DepthOneTwoCycleSkipDoesNotPoisonBlocks) {
  // s=0, u=1, a=2. Edges: 0->1, 1->0 (2-cycle), 0->2, 2->1.
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1}, {1, 0}, {0, 2}, {2, 1}});
  BlockDfs s(g);
  std::vector<VertexId> cycle;
  ASSERT_EQ(s.FindCycleThrough(0, K(4), nullptr, &cycle),
            SearchOutcome::kFound);
  EXPECT_EQ(cycle, (std::vector<VertexId>{0, 2, 1}));
}

TEST(BlockDfsTest, DepthOneSkipCaseAcrossManyFanouts) {
  // Generalization: fan s->u_i, all u_i -> s (2-cycles), plus one long
  // detour s->a->b->u_0; cycle s->a->b->u_0->s has length 4.
  std::vector<Edge> edges;
  const VertexId kFan = 10;
  // s=0, a=1, b=2, u_i = 3+i.
  for (VertexId i = 0; i < kFan; ++i) {
    edges.push_back({0, 3 + i});
    edges.push_back({3 + i, 0});
  }
  edges.push_back({0, 1});
  edges.push_back({1, 2});
  edges.push_back({2, 3});
  CsrGraph g = CsrGraph::FromEdges(3 + kFan, edges);
  BlockDfs s(g);
  std::vector<VertexId> cycle;
  ASSERT_EQ(s.FindCycleThrough(0, K(4), nullptr, &cycle),
            SearchOutcome::kFound);
  EXPECT_EQ(cycle.size(), 4u);
}

TEST(BlockDfsTest, TwoCycleModeFindsBidirectionalPair) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  BlockDfs s(g);
  EXPECT_EQ(s.FindCycleThrough(0, K(5, 2), nullptr, nullptr),
            SearchOutcome::kFound);
  EXPECT_EQ(s.FindCycleThrough(0, K(5, 3), nullptr, nullptr),
            SearchOutcome::kNotFound);
}

TEST(BlockDfsTest, BlockPruningFiresOnFigure5) {
  // The paper's Figure 5: after one probe of a->b_1->c->d, the block on c
  // prunes every remaining a->b_i->c probe.
  const VertexId kFan = 50;
  CsrGraph g = MakeFigure5Blocks(kFan);
  BlockDfs s(g);
  EXPECT_EQ(s.FindCycleThrough(0, K(5), nullptr, nullptr),
            SearchOutcome::kNotFound);
  EXPECT_GE(s.stats().block_prunes, kFan - 1);
}

TEST(BlockDfsTest, BlockPruningBeatsPlainDfsOnFanGraph) {
  const VertexId kFan = 60;
  CsrGraph g = MakeFigure5Blocks(kFan);
  BlockDfs blocks(g);
  PlainDfs plain(g);
  blocks.FindCycleThrough(0, K(5), nullptr, nullptr);
  plain.FindCycleThrough(0, K(5), nullptr, nullptr);
  EXPECT_LT(blocks.stats().expansions, plain.stats().expansions);
}

TEST(BlockDfsTest, ActiveMaskRespected) {
  CsrGraph g = MakeDirectedCycle(3);
  BlockDfs s(g);
  std::vector<uint8_t> active = {1, 0, 1};
  EXPECT_EQ(s.FindCycleThrough(0, K(3), active.data(), nullptr),
            SearchOutcome::kNotFound);
  active[1] = 1;
  EXPECT_EQ(s.FindCycleThrough(0, K(3), active.data(), nullptr),
            SearchOutcome::kFound);
}

TEST(BlockDfsTest, PathModeWithBlockedEdges) {
  CsrGraph g = CsrGraph::FromEdges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  BlockDfs s(g);
  std::vector<uint8_t> blocked(g.num_edges(), 0);
  std::vector<VertexId> path;
  blocked[g.FindEdge(0, 1)] = 1;
  ASSERT_EQ(s.FindPath(0, 3, 1, 3, nullptr, blocked.data(), &path),
            SearchOutcome::kFound);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 2, 3}));
  blocked[g.FindEdge(2, 3)] = 1;
  EXPECT_EQ(s.FindPath(0, 3, 1, 3, nullptr, blocked.data(), nullptr),
            SearchOutcome::kNotFound);
}

TEST(BlockDfsTest, PermanentBlockModeStillFindsCycles) {
  // Unconstrained semantics: max_hops = n, permanent blocking.
  CsrGraph g = MakeDirectedCycle(64);
  BlockDfs s(g);
  CycleConstraint c{.max_hops = 64, .min_len = 3, .permanent_block = true};
  EXPECT_EQ(s.FindCycleThrough(0, c, nullptr, nullptr),
            SearchOutcome::kFound);
}

TEST(BlockDfsTest, PermanentBlockLinearOnAcyclicBlowupGraph) {
  // Layered DAG where plain DFS would re-explore exponentially many paths.
  // 2 vertices per layer, all-to-all between layers, no cycle.
  constexpr VertexId kLayers = 20;
  std::vector<Edge> edges;
  auto id = [](VertexId layer, VertexId slot) {
    return static_cast<VertexId>(2 * layer + slot);
  };
  for (VertexId l = 0; l + 1 < kLayers; ++l) {
    for (VertexId a = 0; a < 2; ++a) {
      for (VertexId b = 0; b < 2; ++b) {
        edges.push_back({id(l, a), id(l + 1, b)});
      }
    }
  }
  CsrGraph g = CsrGraph::FromEdges(2 * kLayers, edges);
  BlockDfs s(g);
  CycleConstraint c{.max_hops = 2 * kLayers,
                    .min_len = 3,
                    .permanent_block = true};
  EXPECT_EQ(s.FindCycleThrough(0, c, nullptr, nullptr),
            SearchOutcome::kNotFound);
  // Permanent blocks mean every vertex fails at most once: the scan count
  // stays linear in edges, nowhere near the 2^20 path count.
  EXPECT_LT(s.stats().expansions, 10 * g.num_edges());
}

TEST(BlockDfsTest, DeadlineExpiryReportsTimeout) {
  // Cycle-free fan large enough that exhaustion outlasts the deadline's
  // amortized check interval.
  CsrGraph g = MakeFigure5Blocks(4000);
  BlockDfs s(g);
  Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_EQ(s.FindCycleThrough(0, K(6), nullptr, nullptr, &d),
            SearchOutcome::kTimedOut);
}

TEST(BlockDfsTest, ReusableAcrossEpochs) {
  CsrGraph g = MakeFigure5Blocks(8);
  BlockDfs s(g);
  // Alternate failing and succeeding searches; epoch reset must isolate
  // block state between calls.
  CsrGraph cyc = MakeDirectedCycle(3);
  BlockDfs s2(cyc);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s.FindCycleThrough(0, K(5), nullptr, nullptr),
              SearchOutcome::kNotFound);
    EXPECT_EQ(s2.FindCycleThrough(0, K(3), nullptr, nullptr),
              SearchOutcome::kFound);
  }
}

}  // namespace
}  // namespace tdb
