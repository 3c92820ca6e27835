#include "core/top_down.h"

#include <gtest/gtest.h>

#include "core/verifier.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "search/brute_force.h"

namespace tdb {
namespace {

CoverOptions Opts(uint32_t k) {
  CoverOptions o;
  o.k = k;
  return o;
}

const TopDownVariant kVariants[] = {TopDownVariant::kPlain,
                                    TopDownVariant::kBlocks,
                                    TopDownVariant::kBlocksFilter};

TEST(TopDownTest, AcyclicGraphEmptyCover) {
  for (TopDownVariant v : kVariants) {
    CoverResult r = SolveTopDown(MakeDirectedPath(10), Opts(5), v);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.cover.empty());
  }
}

TEST(TopDownTest, TriangleCoveredByOneVertex) {
  for (TopDownVariant v : kVariants) {
    CoverResult r = SolveTopDown(MakeDirectedCycle(3), Opts(3), v);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.cover.size(), 1u);
  }
}

TEST(TopDownTest, Figure1CoverDependsOnOrder) {
  CsrGraph g = MakeFigure1Ecommerce();
  for (TopDownVariant v : kVariants) {
    // Default (degree-ascending) order: every peripheral vertex discharges
    // before the hub a is examined, so the cover is exactly {a} — the
    // optimum.
    CoverResult r = SolveTopDown(g, Opts(5), v);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.cover, (std::vector<VertexId>{0}));

    // Id order: a discharges first (G0 still empty) and the last vertex of
    // each of the three cycles is kept instead — minimal but not minimum.
    CoverOptions by_id = Opts(5);
    by_id.order = VertexOrder::kById;
    CoverResult rid = SolveTopDown(g, by_id, v);
    ASSERT_TRUE(rid.status.ok());
    EXPECT_EQ(rid.cover.size(), 3u);
    VerifyReport rep = VerifyCover(g, rid.cover, by_id);
    EXPECT_TRUE(rep.feasible) << rep.ToString();
    EXPECT_TRUE(rep.minimal) << rep.ToString();
  }
}

TEST(TopDownTest, VariantsProduceIdenticalCovers) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    CsrGraph g = GenerateErdosRenyi(70, 280, seed);
    for (uint32_t k = 3; k <= 6; ++k) {
      CoverResult plain = SolveTopDown(g, Opts(k), TopDownVariant::kPlain);
      CoverResult blocks = SolveTopDown(g, Opts(k), TopDownVariant::kBlocks);
      CoverResult filter =
          SolveTopDown(g, Opts(k), TopDownVariant::kBlocksFilter);
      ASSERT_TRUE(plain.status.ok());
      ASSERT_TRUE(blocks.status.ok());
      ASSERT_TRUE(filter.status.ok());
      EXPECT_EQ(plain.cover, blocks.cover) << "seed=" << seed << " k=" << k;
      EXPECT_EQ(plain.cover, filter.cover) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(TopDownTest, CoversAreFeasibleAndMinimal) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    PowerLawParams p;
    p.n = 150;
    p.m = 700;
    p.reciprocity = 0.3;
    p.seed = seed;
    CsrGraph g = GeneratePowerLaw(p);
    CoverOptions opts = Opts(5);
    CoverResult r = SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
    ASSERT_TRUE(r.status.ok());
    VerifyReport rep = VerifyCover(g, r.cover, opts);
    EXPECT_TRUE(rep.feasible) << "seed=" << seed << " " << rep.ToString();
    EXPECT_TRUE(rep.minimal) << "seed=" << seed << " " << rep.ToString();
  }
}

TEST(TopDownTest, AllOrdersYieldFeasibleMinimalCovers) {
  CsrGraph g = GenerateErdosRenyi(60, 300, /*seed=*/3);
  for (VertexOrder order :
       {VertexOrder::kById, VertexOrder::kByDegreeAsc,
        VertexOrder::kByDegreeDesc, VertexOrder::kRandom}) {
    CoverOptions opts = Opts(4);
    opts.order = order;
    CoverResult r = SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
    ASSERT_TRUE(r.status.ok());
    VerifyReport rep = VerifyCover(g, r.cover, opts);
    EXPECT_TRUE(rep.feasible) << rep.ToString();
    EXPECT_TRUE(rep.minimal) << rep.ToString();
  }
}

TEST(TopDownTest, NotBelowOptimal) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    CsrGraph g = GenerateErdosRenyi(22, 70, seed);
    ExactCoverResult exact;
    ASSERT_TRUE(SolveExactMinimumCover(
                    g, Opts(4).Constraint(g.num_vertices()), 1 << 20, &exact)
                    .ok());
    CoverResult r = SolveTopDown(g, Opts(4), TopDownVariant::kBlocksFilter);
    ASSERT_TRUE(r.status.ok());
    EXPECT_GE(r.cover.size(), exact.cover.size());
  }
}

TEST(TopDownTest, UnconstrainedCoversEveryCycleLength) {
  // 9-cycle: invisible at k=5, covered in unconstrained mode.
  CsrGraph g = MakeDirectedCycle(9);
  CoverResult bounded =
      SolveTopDown(g, Opts(5), TopDownVariant::kBlocksFilter);
  ASSERT_TRUE(bounded.status.ok());
  EXPECT_TRUE(bounded.cover.empty());
  CoverOptions unconstrained = Opts(5);
  unconstrained.unconstrained = true;
  CoverResult full =
      SolveTopDown(g, unconstrained, TopDownVariant::kBlocksFilter);
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(full.cover.size(), 1u);
}

TEST(TopDownTest, UnconstrainedMatchesLargeKResult) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    CsrGraph g = GenerateErdosRenyi(40, 120, seed);
    CoverOptions unc = Opts(3);
    unc.unconstrained = true;
    CoverOptions huge = Opts(g.num_vertices());
    CoverResult a = SolveTopDown(g, unc, TopDownVariant::kBlocks);
    CoverResult b = SolveTopDown(g, huge, TopDownVariant::kBlocks);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.cover, b.cover) << "seed=" << seed;
  }
}

TEST(TopDownTest, TwoCycleModeGrowsTheCover) {
  CsrGraph g = CsrGraph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}});
  CoverOptions opts = Opts(5);
  CoverResult without = SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
  ASSERT_TRUE(without.status.ok());
  EXPECT_EQ(without.cover.size(), 1u);  // triangle only
  opts.include_two_cycles = true;
  CoverResult with = SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
  ASSERT_TRUE(with.status.ok());
  EXPECT_EQ(with.cover.size(), 2u);  // triangle + the 2-cycle
}

TEST(TopDownTest, BfsFilterCountsDischarges) {
  // Long cycle out of k-range: every vertex is filtered, none searched.
  CsrGraph g = MakeDirectedCycle(12);
  CoverResult r = SolveTopDown(g, Opts(5), TopDownVariant::kBlocksFilter);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cover.empty());
  EXPECT_EQ(r.stats.bfs_filtered, 12u);
  EXPECT_EQ(r.stats.searches, 0u);
}

TEST(TopDownTest, TimeoutSurfacesAsTimedOut) {
  CsrGraph g = MakeCompleteDigraph(80);
  CoverOptions opts = Opts(6);
  opts.time_limit_seconds = 1e-9;
  CoverResult r = SolveTopDown(g, opts, TopDownVariant::kBlocks);
  EXPECT_TRUE(r.status.IsTimedOut());
}

TEST(TopDownTest, RejectsInvalidK) {
  CoverResult r =
      SolveTopDown(MakeDirectedCycle(3), Opts(1), TopDownVariant::kPlain);
  EXPECT_TRUE(r.status.IsInvalidArgument());
}

}  // namespace
}  // namespace tdb
