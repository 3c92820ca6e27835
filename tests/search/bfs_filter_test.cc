#include "search/bfs_filter.h"

#include <gtest/gtest.h>

#include "core/solver.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "search/path_search.h"

namespace tdb {
namespace {

TEST(BfsFilterTest, ExactWalkLengthOnSimpleCycle) {
  CsrGraph g = MakeDirectedCycle(5);
  BfsFilter f(g);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(f.ShortestClosedWalk(v, 10, nullptr), 5u);
  }
  // Each call dequeues the whole cycle once before closing it.
  EXPECT_EQ(f.stats().filter_visits, 25u);
}

TEST(BfsFilterTest, ReportsAboveBudgetWhenCycleTooLong) {
  CsrGraph g = MakeDirectedCycle(8);
  BfsFilter f(g);
  EXPECT_EQ(f.ShortestClosedWalk(0, 7, nullptr), 8u);  // max_hops + 1
  EXPECT_EQ(f.ShortestClosedWalk(0, 8, nullptr), 8u);  // found exactly
}

TEST(BfsFilterTest, AcyclicVertexAlwaysAboveBudget) {
  CsrGraph g = MakeDirectedPath(6);
  BfsFilter f(g);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_GT(f.ShortestClosedWalk(v, 5, nullptr), 5u);
  }
}

TEST(BfsFilterTest, TwoWalkOverBidirectionalEdge) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}});
  BfsFilter f(g);
  EXPECT_EQ(f.ShortestClosedWalk(0, 5, nullptr), 2u);
}

TEST(BfsFilterTest, PicksShorterOfTwoCycles) {
  // 0->1->2->0 (3) and 0->3->4->5->0 (4): BFS must report 3.
  CsrGraph g = CsrGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 5}, {5, 0}});
  BfsFilter f(g);
  EXPECT_EQ(f.ShortestClosedWalk(0, 10, nullptr), 3u);
}

TEST(BfsFilterTest, ActiveMaskShrinksReach) {
  CsrGraph g = CsrGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 5}, {5, 0}});
  BfsFilter f(g);
  std::vector<uint8_t> active(6, 1);
  active[1] = 0;  // cut the triangle
  EXPECT_EQ(f.ShortestClosedWalk(0, 10, active.data()), 4u);
  active[4] = 0;  // cut the square too
  EXPECT_GT(f.ShortestClosedWalk(0, 10, active.data()), 10u);
}

TEST(BfsFilterTest, CannotConfirmSimplicityButNeverPrunesWrongly) {
  // Figure 4(b): no simple cycle through a, but the filter is allowed to
  // return <= k (it is one-sided); it must NOT return > k on Figure 4(a)
  // where a real cycle exists.
  CsrGraph ga = MakeFigure4a();
  BfsFilter fa(ga);
  EXPECT_LE(fa.ShortestClosedWalk(0, 5, nullptr), 5u);
}

TEST(BfsFilterTest, SoundnessOnRandomGraphs) {
  // One-sided guarantee: whenever the exact validator finds a cycle
  // through v within k hops, the BFS bound is <= k.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    CsrGraph g = GenerateErdosRenyi(80, 240, seed);
    BfsFilter filter(g);
    BlockSearch validator(g);
    for (uint32_t k = 3; k <= 6; ++k) {
      CycleConstraint c{.max_hops = k, .min_len = 3};
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (validator.FindCycleThrough(v, c, nullptr, nullptr) ==
            SearchOutcome::kFound) {
          EXPECT_LE(filter.ShortestClosedWalk(v, k, nullptr), k)
              << "seed=" << seed << " k=" << k << " v=" << v;
        }
      }
    }
    EXPECT_GT(filter.stats().filter_visits, 0u) << "seed=" << seed;
    // The engine's filter_visits is a deterministic function of the
    // graph: every component does the same filter work on any thread.
    CoverOptions options;
    options.k = 5;
    const CoverResult one =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, options);
    options.num_threads = 4;
    const CoverResult four =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, options);
    ASSERT_TRUE(one.status.ok() && four.status.ok());
    EXPECT_GT(one.stats.filter_visits, 0u) << "seed=" << seed;
    EXPECT_EQ(one.stats.filter_visits, four.stats.filter_visits)
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace tdb
