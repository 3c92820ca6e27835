// The work-budget deadline split (CoverOptions::split_budget_by_work):
// timed-out components fall back to their full vertex set so the merged
// cover stays feasible — the "fair partial cover" contract the serving
// layer's compaction publishes under.
#include <gtest/gtest.h>

#include <vector>

#include "core/solver.h"
#include "core/verifier.h"
#include "graph/generators.h"
#include "graph/scc.h"

namespace tdb {
namespace {

/// Block-diagonal multi-SCC graph: `blocks` disjoint chorded cycles.
CsrGraph MakeBlocks(VertexId blocks, VertexId block_n, uint64_t seed) {
  std::vector<Edge> edges;
  for (VertexId b = 0; b < blocks; ++b) {
    const VertexId offset = b * block_n;
    CsrGraph block = GenerateChordedCycle(block_n, 3, seed + b);
    for (EdgeId e = 0; e < block.num_edges(); ++e) {
      edges.push_back(
          Edge{offset + block.EdgeSrc(e), offset + block.EdgeDst(e)});
    }
  }
  return CsrGraph::FromEdges(blocks * block_n, std::move(edges));
}

TEST(WorkBudgetTest, ExhaustedBudgetStillYieldsFeasibleCover) {
  CsrGraph g = MakeBlocks(4, 60, /*seed=*/7);
  CoverOptions opts;
  opts.k = 4;
  // A budget gone before the engine even starts: condensation itself
  // aborts (it polls the deadline too) and the whole graph falls back.
  opts.time_limit_seconds = 1e-9;
  opts.split_budget_by_work = true;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GE(r.stats.components_timed_out, 1u);
  // Fallback = the full vertex set (trivially feasible).
  EXPECT_EQ(r.cover.size(), g.num_vertices());
  const VerifyReport report =
      VerifyCover(g, r.cover, opts, /*check_minimality=*/false);
  EXPECT_TRUE(report.feasible) << report.ToString();
}

TEST(WorkBudgetTest, CondensationAbortsOnExpiredDeadlineUnderSplit) {
  // Regression (ROADMAP condensation item): a timed-out solve used to
  // pay for a FULL condensation before any fallback could trigger.
  // CondenseScc checks the deadline before its first traversal, so with
  // an exhausted budget no components are ever decomposed — and the
  // split contract (ok + feasible) still holds through the whole-graph
  // fallback.
  CsrGraph g = MakeBlocks(4, 60, /*seed=*/7);
  CoverOptions opts;
  opts.k = 4;
  opts.time_limit_seconds = 1e-9;
  opts.split_budget_by_work = true;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  // The proof that condensation aborted: zero components decomposed
  // (a full condensation of this graph finds 4).
  EXPECT_EQ(r.stats.scc_components, 0u);
  EXPECT_EQ(r.stats.components_timed_out, 1u);
  EXPECT_EQ(r.cover.size(), g.num_vertices());
  const VerifyReport report =
      VerifyCover(g, r.cover, opts, /*check_minimality=*/false);
  EXPECT_TRUE(report.feasible) << report.ToString();
}

TEST(WorkBudgetTest, CondensationAbortsOnExpiredDeadlineWithoutSplit) {
  // Without the split the engine reports the timeout like the classic
  // solvers — but no longer after paying for the decomposition first.
  CsrGraph g = MakeBlocks(4, 60, /*seed=*/7);
  CoverOptions opts;
  opts.k = 4;
  opts.time_limit_seconds = 1e-9;
  // num_threads 1 exercises the barrier path, > 1 the streaming
  // pipeline's condenser thread.
  for (int threads : {1, 2}) {
    opts.num_threads = threads;
    CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
    EXPECT_TRUE(r.status.IsTimedOut()) << r.status.ToString();
    EXPECT_TRUE(r.cover.empty());
    EXPECT_EQ(r.stats.scc_components, 0u);
  }
}

TEST(WorkBudgetTest, GenerousBudgetMatchesUnlimitedSolve) {
  CsrGraph g = MakeBlocks(3, 50, /*seed=*/9);
  CoverOptions unlimited;
  unlimited.k = 4;
  const CoverResult reference =
      SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, unlimited);
  ASSERT_TRUE(reference.status.ok());

  CoverOptions split = unlimited;
  split.time_limit_seconds = 300.0;
  split.split_budget_by_work = true;
  for (CoverAlgorithm algo :
       {CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kBurPlus}) {
    CoverResult r = SolveCycleCover(g, algo, split);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.stats.components_timed_out, 0u);
    if (algo == CoverAlgorithm::kTdbPlusPlus) {
      EXPECT_EQ(r.cover, reference.cover);
    }
    const VerifyReport report =
        VerifyCover(g, r.cover, split, /*check_minimality=*/false);
    EXPECT_TRUE(report.feasible) << report.ToString();
  }
}

TEST(WorkBudgetTest, SharedClockSemanticsUnchangedWithoutTheKnob) {
  CsrGraph g = MakeBlocks(4, 60, /*seed=*/7);
  CoverOptions opts;
  opts.k = 4;
  opts.time_limit_seconds = 1e-9;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  EXPECT_TRUE(r.status.IsTimedOut());
  EXPECT_TRUE(r.cover.empty());
  EXPECT_EQ(r.stats.components_timed_out, 0u);
}

TEST(WorkBudgetTest, SharesAreProportionalAcrossMixedSizes) {
  // One big and one small component with a budget only the big one can
  // blow through: the split must not let the small one starve (it gets
  // its own share and solves within it), while the whole result stays
  // feasible regardless of which components time out.
  std::vector<Edge> edges;
  CsrGraph big = GenerateChordedCycle(300, 4, /*seed=*/1);
  for (EdgeId e = 0; e < big.num_edges(); ++e) {
    edges.push_back(Edge{big.EdgeSrc(e), big.EdgeDst(e)});
  }
  const VertexId offset = 300;
  CsrGraph small = GenerateChordedCycle(10, 2, /*seed=*/2);
  for (EdgeId e = 0; e < small.num_edges(); ++e) {
    edges.push_back(
        Edge{offset + small.EdgeSrc(e), offset + small.EdgeDst(e)});
  }
  CsrGraph g = CsrGraph::FromEdges(310, std::move(edges));
  ASSERT_EQ(ComputeScc(g).num_components, 2u);

  CoverOptions opts;
  opts.k = 4;
  opts.time_limit_seconds = 0.02;
  opts.split_budget_by_work = true;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  const VerifyReport report =
      VerifyCover(g, r.cover, opts, /*check_minimality=*/false);
  EXPECT_TRUE(report.feasible) << report.ToString();
}

}  // namespace
}  // namespace tdb
