#include "core/lower_bound.h"

#include <gtest/gtest.h>

#include "core/solver.h"
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

TEST(LowerBoundTest, AcyclicGraphPacksNothing) {
  CyclePacking p = PackDisjointCycles(MakeDirectedPath(10), Opts(5));
  EXPECT_EQ(p.LowerBound(), 0u);
}

TEST(LowerBoundTest, SingleCyclePacksOne) {
  CyclePacking p = PackDisjointCycles(MakeDirectedCycle(4), Opts(5));
  EXPECT_EQ(p.LowerBound(), 1u);
}

TEST(LowerBoundTest, DisjointTrianglesAllPacked) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 5; ++i) {
    const VertexId base = 3 * i;
    edges.push_back({base, static_cast<VertexId>(base + 1)});
    edges.push_back({static_cast<VertexId>(base + 1),
                     static_cast<VertexId>(base + 2)});
    edges.push_back({static_cast<VertexId>(base + 2), base});
  }
  CyclePacking p =
      PackDisjointCycles(CsrGraph::FromEdges(15, edges), Opts(3));
  EXPECT_EQ(p.LowerBound(), 5u);
}

TEST(LowerBoundTest, Figure1PacksExactlyOne) {
  // All three cycles share vertex a, so no two are disjoint.
  CyclePacking p = PackDisjointCycles(MakeFigure1Ecommerce(), Opts(5));
  EXPECT_EQ(p.LowerBound(), 1u);
}

TEST(LowerBoundTest, PackingIsActuallyDisjointAndValid) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    CsrGraph g = GenerateErdosRenyi(80, 320, seed);
    const CoverOptions opts = Opts(5);
    CyclePacking p = PackDisjointCycles(g, opts);
    std::vector<uint8_t> used(g.num_vertices(), 0);
    for (const auto& cyc : p.cycles) {
      ASSERT_GE(cyc.size(), 3u);
      ASSERT_LE(cyc.size(), 5u);
      for (size_t i = 0; i < cyc.size(); ++i) {
        ASSERT_TRUE(g.HasEdge(cyc[i], cyc[(i + 1) % cyc.size()]));
        ASSERT_FALSE(used[cyc[i]]) << "vertex reused across cycles";
        used[cyc[i]] = 1;
      }
    }
  }
}

TEST(LowerBoundTest, BoundsTheOptimumFromBelow) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    CsrGraph g = GenerateErdosRenyi(24, 80, seed);
    const CoverOptions opts = Opts(4);
    ExactCoverResult exact;
    ASSERT_TRUE(SolveExactMinimumCover(
                    g, opts.Constraint(g.num_vertices()), 1 << 20, &exact)
                    .ok());
    CyclePacking p = PackDisjointCycles(g, opts);
    EXPECT_LE(p.LowerBound(), exact.cover.size()) << "seed=" << seed;
  }
}

TEST(LowerBoundTest, SandwichesEveryHeuristic) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    PowerLawParams params;
    params.n = 150;
    params.m = 800;
    params.reciprocity = 0.3;
    params.seed = seed;
    CsrGraph g = GeneratePowerLaw(params);
    const CoverOptions opts = Opts(5);
    const size_t lb = PackDisjointCycles(g, opts).LowerBound();
    for (CoverAlgorithm algo :
         {CoverAlgorithm::kBurPlus, CoverAlgorithm::kTdbPlusPlus}) {
      CoverResult r = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(r.status.ok());
      EXPECT_GE(r.cover.size(), lb) << AlgorithmName(algo);
    }
  }
}

TEST(LowerBoundTest, ExpiredDeadlineIsFlaggedAndStaysValid) {
  // Dense enough that the packing needs far more than the deadline's
  // 1024-expansion clock-check interval.
  const CsrGraph g = GenerateErdosRenyi(3000, 30000, /*seed=*/2);
  CoverOptions opts = Opts(6);
  const CyclePacking full = PackDisjointCycles(g, opts);
  EXPECT_FALSE(full.timed_out);
  opts.time_limit_seconds = 1e-9;  // expired by the first clock check
  const CyclePacking cut = PackDisjointCycles(g, opts);
  EXPECT_TRUE(cut.timed_out);
  EXPECT_LT(cut.LowerBound(), full.LowerBound());
  std::vector<uint8_t> used(g.num_vertices(), 0);
  for (const auto& cyc : cut.cycles) {
    ASSERT_GE(cyc.size(), 3u);
    ASSERT_LE(cyc.size(), 6u);
    for (size_t i = 0; i < cyc.size(); ++i) {
      ASSERT_TRUE(g.HasEdge(cyc[i], cyc[(i + 1) % cyc.size()]));
      ASSERT_FALSE(used[cyc[i]]) << "vertex reused across cycles";
      used[cyc[i]] = 1;
    }
  }
}

TEST(LowerBoundTest, TwoCycleModePacksPairs) {
  CsrGraph g = CsrGraph::FromEdges(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  CoverOptions opts = Opts(5);
  EXPECT_EQ(PackDisjointCycles(g, opts).LowerBound(), 0u);
  opts.include_two_cycles = true;
  EXPECT_EQ(PackDisjointCycles(g, opts).LowerBound(), 2u);
}

}  // namespace
}  // namespace tdb
