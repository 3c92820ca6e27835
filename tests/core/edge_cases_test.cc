// Boundary conditions across the whole stack: empty and degenerate graphs,
// extreme k, self-loop handling, and option validation — the inputs a
// downstream user will eventually feed the library.
#include <gtest/gtest.h>

#include "core/lower_bound.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/line_graph.h"
#include "graph/scc.h"
#include "search/cycle_enumerator.h"

namespace tdb {
namespace {

const CoverAlgorithm kAll[] = {
    CoverAlgorithm::kBur,     CoverAlgorithm::kBurPlus,
    CoverAlgorithm::kTdb,     CoverAlgorithm::kTdbPlus,
    CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kDarcDv,
};

TEST(EdgeCasesTest, EmptyGraphEverywhere) {
  CsrGraph empty;
  CoverOptions opts;
  opts.k = 5;
  for (CoverAlgorithm algo : kAll) {
    CoverResult r = SolveCycleCover(empty, algo, opts);
    ASSERT_TRUE(r.status.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(r.cover.empty()) << AlgorithmName(algo);
  }
  VerifyReport rep = VerifyCover(empty, {}, opts);
  EXPECT_TRUE(rep.feasible);
  EXPECT_TRUE(rep.minimal);
  EXPECT_EQ(PackDisjointCycles(empty, opts).LowerBound(), 0u);
  EXPECT_EQ(ComputeScc(empty).num_components, 0u);
  EXPECT_EQ(CountConstrainedCycles(empty, opts.Constraint(0), 10), 0u);
}

TEST(EdgeCasesTest, SingleVertexNoEdges) {
  CsrGraph g = CsrGraph::FromEdges(1, {});
  CoverOptions opts;
  opts.k = 5;
  for (CoverAlgorithm algo : kAll) {
    CoverResult r = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.cover.empty());
  }
}

TEST(EdgeCasesTest, IsolatedVerticesSurviveTheStack) {
  // Vertices 5..9 have no edges at all.
  CsrGraph g = CsrGraph::FromEdges(10, {{0, 1}, {1, 2}, {2, 0}});
  CoverOptions opts;
  opts.k = 3;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover.size(), 1u);
  EXPECT_LT(r.cover[0], 3u);
}

TEST(EdgeCasesTest, SelfLoopsAreDroppedAtBuild) {
  // The paper excludes self-loops from the cycle family; the graph layer
  // enforces it once, so no solver ever sees them.
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 0u);
  CoverOptions opts;
  opts.k = 3;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cover.empty());
}

TEST(EdgeCasesTest, KLargerThanGraph) {
  CsrGraph g = MakeDirectedCycle(4);
  CoverOptions opts;
  opts.k = 1000;  // far beyond any simple cycle's length
  for (CoverAlgorithm algo :
       {CoverAlgorithm::kBurPlus, CoverAlgorithm::kTdbPlusPlus,
        CoverAlgorithm::kDarcDv}) {
    CoverResult r = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(r.status.ok()) << AlgorithmName(algo);
    EXPECT_EQ(r.cover.size(), 1u) << AlgorithmName(algo);
  }
}

TEST(EdgeCasesTest, KEqualsExactCycleLength) {
  CsrGraph g = MakeDirectedCycle(7);
  CoverOptions opts;
  opts.k = 7;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover.size(), 1u);
  opts.k = 6;
  r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cover.empty());
}

TEST(EdgeCasesTest, MinimumLegalK) {
  CoverOptions opts;
  opts.k = 3;
  EXPECT_TRUE(opts.Validate().ok());
  opts.k = 2;
  EXPECT_FALSE(opts.Validate().ok());
  opts.include_two_cycles = true;
  EXPECT_TRUE(opts.Validate().ok());
  opts.k = 1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(EdgeCasesTest, UnconstrainedIgnoresTinyK) {
  // With unconstrained=true the k value is irrelevant and never rejected
  // as long as it parses; the constraint window becomes [3, n].
  CsrGraph g = MakeDirectedCycle(12);
  CoverOptions opts;
  opts.k = 3;
  opts.unconstrained = true;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover.size(), 1u);
}

TEST(EdgeCasesTest, TwoCycleOnlyGraph) {
  // Pure bidirectional graph: default mode sees nothing at all.
  CsrGraph g = MakeCompleteDigraph(2);
  CoverOptions opts;
  opts.k = 5;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cover.empty());
  // The 2-cycle mode breaks the pair with one endpoint.
  opts.include_two_cycles = true;
  r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover.size(), 1u);
}

TEST(EdgeCasesTest, LineGraphOfEmptyAndTinyGraphs) {
  LineGraph l;
  ASSERT_TRUE(BuildLineGraph(CsrGraph(), &l).ok());
  EXPECT_EQ(l.graph.num_vertices(), 0u);
  ASSERT_TRUE(BuildLineGraph(MakeDirectedPath(2), &l).ok());
  EXPECT_EQ(l.graph.num_vertices(), 1u);
  EXPECT_EQ(l.graph.num_edges(), 0u);
}

TEST(EdgeCasesTest, StatsOnDegenerateGraphs) {
  GraphStats one = ComputeStats(CsrGraph::FromEdges(1, {}));
  EXPECT_EQ(one.num_vertices, 1u);
  EXPECT_DOUBLE_EQ(one.avg_degree, 0.0);
  EXPECT_EQ(one.num_bidegree_vertices, 0u);
}

TEST(EdgeCasesTest, VerifierRejectsOutOfRangeGracefully) {
  // Covers listing every vertex are legal (trivially feasible).
  CsrGraph g = MakeDirectedCycle(3);
  CoverOptions opts;
  opts.k = 3;
  VerifyReport rep = VerifyCover(g, {0, 1, 2}, opts);
  EXPECT_TRUE(rep.feasible);
  EXPECT_FALSE(rep.minimal);  // any two are redundant
}

TEST(EdgeCasesTest, DeterminismAcrossRepeatedSolves) {
  CsrGraph g = GenerateErdosRenyi(60, 240, /*seed=*/4);
  CoverOptions opts;
  opts.k = 5;
  CoverResult first = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  for (int i = 0; i < 3; ++i) {
    CoverResult again =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.cover, first.cover);
  }
}

}  // namespace
}  // namespace tdb
