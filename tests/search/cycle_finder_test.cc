// The bounded DFS kernel, plain instantiation (PlainDfs, the search of
// TDB, BUR, BUR+ and the minimal prune): hop window, active mask, path
// mode with blocked edges, deadline, stats and reuse. The block bounds on
// top of the same loop are in path_search_test.cc.
#include "search/path_search.h"

#include <gtest/gtest.h>

#include "graph/fixtures.h"
#include "graph/generators.h"

namespace tdb {
namespace {

CycleConstraint K(uint32_t k, uint32_t min_len = 3) {
  return CycleConstraint{.max_hops = k, .min_len = min_len};
}

TEST(PlainDfsTest, FindsTriangle) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  std::vector<VertexId> cycle;
  EXPECT_EQ(f.FindCycleThrough(0, K(3), nullptr, &cycle),
            SearchOutcome::kFound);
  EXPECT_EQ(cycle, (std::vector<VertexId>{0, 1, 2}));
}

TEST(PlainDfsTest, HopConstraintExcludesLongCycles) {
  CsrGraph g = MakeDirectedCycle(6);
  PlainDfs f(g);
  EXPECT_EQ(f.FindCycleThrough(0, K(5), nullptr, nullptr),
            SearchOutcome::kNotFound);
  EXPECT_EQ(f.FindCycleThrough(0, K(6), nullptr, nullptr),
            SearchOutcome::kFound);
}

TEST(PlainDfsTest, TwoCycleExcludedByDefaultWindow) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  PlainDfs f(g);
  EXPECT_EQ(f.FindCycleThrough(0, K(5, 3), nullptr, nullptr),
            SearchOutcome::kNotFound);
  EXPECT_EQ(f.FindCycleThrough(0, K(5, 2), nullptr, nullptr),
            SearchOutcome::kFound);
}

TEST(PlainDfsTest, ActiveMaskHidesVertices) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  std::vector<uint8_t> active = {1, 0, 1};  // vertex 1 removed
  EXPECT_EQ(f.FindCycleThrough(0, K(3), active.data(), nullptr),
            SearchOutcome::kNotFound);
}

TEST(PlainDfsTest, StartIsExemptFromMask) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  std::vector<uint8_t> active = {0, 1, 1};  // start itself masked out
  EXPECT_EQ(f.FindCycleThrough(0, K(3), active.data(), nullptr),
            SearchOutcome::kFound);
}

TEST(PlainDfsTest, Figure4Graphs) {
  CsrGraph a = MakeFigure4a();  // searcher keeps a reference: keep alive
  PlainDfs fa(a);
  EXPECT_EQ(fa.FindCycleThrough(0, K(5), nullptr, nullptr),
            SearchOutcome::kFound);
  CsrGraph b = MakeFigure4b();
  PlainDfs fb(b);
  EXPECT_EQ(fb.FindCycleThrough(0, K(5), nullptr, nullptr),
            SearchOutcome::kNotFound);
}

TEST(PlainDfsTest, CycleOnlyReachableViaLongRoute) {
  // Cycle 0->1->2->3->0 plus chord 0->2: with k=4 the finder must not be
  // confused by the chord (which creates 0->2->3->0 of length 3 too).
  CsrGraph g =
      CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  PlainDfs f(g);
  std::vector<VertexId> cycle;
  ASSERT_EQ(f.FindCycleThrough(0, K(3), nullptr, &cycle),
            SearchOutcome::kFound);
  EXPECT_EQ(cycle.size(), 3u);
}

TEST(PlainDfsTest, PathModeBasics) {
  CsrGraph g = MakeDirectedPath(5);
  PlainDfs f(g);
  std::vector<VertexId> path;
  EXPECT_EQ(f.FindPath(0, 4, 1, 4, nullptr, nullptr, &path),
            SearchOutcome::kFound);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(f.FindPath(0, 4, 1, 3, nullptr, nullptr, nullptr),
            SearchOutcome::kNotFound);
  EXPECT_EQ(f.FindPath(4, 0, 1, 10, nullptr, nullptr, nullptr),
            SearchOutcome::kNotFound);
}

TEST(PlainDfsTest, PathMinHopsRejectsDirectEdge) {
  // 0->1 direct plus 0->2->1: min_hops=2 must take the detour.
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1}, {0, 2}, {2, 1}});
  PlainDfs f(g);
  std::vector<VertexId> path;
  ASSERT_EQ(f.FindPath(0, 1, 2, 5, nullptr, nullptr, &path),
            SearchOutcome::kFound);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 2, 1}));
}

TEST(PlainDfsTest, BlockedEdgesAreInvisible) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  std::vector<uint8_t> blocked(g.num_edges(), 0);
  blocked[g.FindEdge(1, 2)] = 1;
  EXPECT_EQ(f.FindPath(0, 2, 1, 3, nullptr, blocked.data(), nullptr),
            SearchOutcome::kNotFound);
  blocked[g.FindEdge(1, 2)] = 0;
  EXPECT_EQ(f.FindPath(0, 2, 1, 3, nullptr, blocked.data(), nullptr),
            SearchOutcome::kFound);
}

TEST(PlainDfsTest, DeadlineExpiryReportsTimeout) {
  // A cycle-free graph large enough that exhaustion needs more edge scans
  // than the deadline's amortized check interval: the zero budget must be
  // noticed mid-search.
  CsrGraph g = MakeFigure5Blocks(4000);
  PlainDfs f(g);
  Deadline d = Deadline::AfterSeconds(0.0);
  EXPECT_EQ(f.FindCycleThrough(0, K(6), nullptr, nullptr, &d),
            SearchOutcome::kTimedOut);
}

TEST(PlainDfsTest, StatsAccumulate) {
  CsrGraph g = MakeDirectedCycle(4);
  PlainDfs f(g);
  f.FindCycleThrough(0, K(4), nullptr, nullptr);
  EXPECT_GT(f.stats().expansions, 0u);
  EXPECT_GT(f.stats().pushes, 0u);
  f.ResetStats();
  EXPECT_EQ(f.stats().expansions, 0u);
}

TEST(PlainDfsTest, SearcherIsReusableAfterEachOutcome) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.FindCycleThrough(0, K(3), nullptr, nullptr),
              SearchOutcome::kFound);
    EXPECT_EQ(f.FindCycleThrough(0, K(2, 3), nullptr, nullptr),
              SearchOutcome::kNotFound);
  }
}

TEST(PlainDfsTest, MaxHopsZeroFindsNothing) {
  CsrGraph g = MakeDirectedCycle(3);
  PlainDfs f(g);
  EXPECT_EQ(f.FindCycleThrough(0, CycleConstraint{.max_hops = 0},
                               nullptr, nullptr),
            SearchOutcome::kNotFound);
}

}  // namespace
}  // namespace tdb
