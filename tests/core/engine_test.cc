// Determinism and exactness of the SCC-partitioned parallel engine: for
// every algorithm, the cover must be independent of the thread count and
// bit-identical to the classic whole-graph sequential solvers — on many
// small components and on giant ones. Every non-DARC component solves in
// place on the parent graph with its worker's SearchContext masks, so the
// masks must come back all-zero after every solve, timeouts included.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/bottom_up.h"
#include "core/darc.h"
#include "core/solver.h"
#include "core/top_down.h"
#include "core/verifier.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "graph/scc.h"
#include "search/search_context.h"

namespace tdb {
namespace {

const CoverAlgorithm kAll[] = {
    CoverAlgorithm::kBur,     CoverAlgorithm::kBurPlus,
    CoverAlgorithm::kTdb,     CoverAlgorithm::kTdbPlus,
    CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kDarcDv,
};

/// Fixture + generator graphs with varied SCC structure: one dense SCC,
/// a giant-component random graph, and a DAG with many planted SCCs.
std::vector<std::pair<std::string, CsrGraph>> TestGraphs() {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  graphs.emplace_back("figure1", MakeFigure1Ecommerce());
  graphs.emplace_back("erdos", GenerateErdosRenyi(60, 240, /*seed=*/5));
  graphs.emplace_back(
      "planted",
      GeneratePlantedCycles(150, 400, /*num_cycles=*/15, 3, 6, /*seed=*/7)
          .graph);
  PowerLawParams p;
  p.n = 100;
  p.m = 400;
  p.reciprocity = 0.3;
  p.seed = 11;
  graphs.emplace_back("powerlaw", GeneratePowerLaw(p));
  return graphs;
}

/// One chorded cycle (a single SCC) per entry of `sizes`, relabelled
/// consecutively, plus a forward edge from each block to the next: the
/// blocks stay separate SCCs, but the in-place solvers must ignore the
/// edges that leave their component.
CsrGraph MakeBlocks(const std::vector<VertexId>& sizes, uint64_t seed) {
  std::vector<Edge> edges;
  VertexId offset = 0;
  for (size_t b = 0; b < sizes.size(); ++b) {
    const CsrGraph block = GenerateChordedCycle(sizes[b], 2, seed + b);
    for (EdgeId e = 0; e < block.num_edges(); ++e) {
      edges.push_back(
          Edge{offset + block.EdgeSrc(e), offset + block.EdgeDst(e)});
    }
    if (b + 1 < sizes.size()) {
      edges.push_back(Edge{offset, offset + sizes[b]});
    }
    offset += sizes[b];
  }
  return CsrGraph::FromEdges(offset, std::move(edges));
}

/// The classic whole-graph sequential solver for `algo`.
CoverResult ClassicSolve(const CsrGraph& g, CoverAlgorithm algo,
                         const CoverOptions& opts) {
  switch (algo) {
    case CoverAlgorithm::kBur:
      return SolveBottomUp(g, opts, /*minimal=*/false);
    case CoverAlgorithm::kBurPlus:
      return SolveBottomUp(g, opts, /*minimal=*/true);
    case CoverAlgorithm::kTdb:
      return SolveTopDown(g, opts, TopDownVariant::kPlain);
    case CoverAlgorithm::kTdbPlus:
      return SolveTopDown(g, opts, TopDownVariant::kBlocks);
    case CoverAlgorithm::kTdbPlusPlus:
      return SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
    case CoverAlgorithm::kDarcDv:
      return SolveDarcDv(g, opts);
  }
  return {};
}

TEST(EngineTest, CoversIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : TestGraphs()) {
    for (CoverAlgorithm algo : kAll) {
      CoverOptions opts;
      opts.k = 4;
      opts.num_threads = 1;
      CoverResult sequential = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(sequential.status.ok())
          << name << " " << AlgorithmName(algo);
      EXPECT_GT(sequential.stats.scc_components, 0u) << name;
      EXPECT_TRUE(VerifyCover(g, sequential.cover, opts, false).feasible)
          << name << " " << AlgorithmName(algo);
      for (int threads : {2, 8}) {
        opts.num_threads = threads;
        CoverResult parallel = SolveCycleCover(g, algo, opts);
        ASSERT_TRUE(parallel.status.ok())
            << name << " " << AlgorithmName(algo) << " threads=" << threads;
        EXPECT_EQ(sequential.cover, parallel.cover)
            << name << " " << AlgorithmName(algo) << " threads=" << threads;
        EXPECT_EQ(sequential.stats.scc_components,
                  parallel.stats.scc_components)
            << name;
      }
    }
  }
}

TEST(EngineTest, MatchesClassicTopDownForEveryOrder) {
  CsrGraph g = GenerateErdosRenyi(70, 280, /*seed=*/2);
  for (VertexOrder order :
       {VertexOrder::kByDegreeAsc, VertexOrder::kById,
        VertexOrder::kByDegreeDesc, VertexOrder::kRandom}) {
    for (auto [algo, variant] :
         {std::pair{CoverAlgorithm::kTdb, TopDownVariant::kPlain},
          std::pair{CoverAlgorithm::kTdbPlus, TopDownVariant::kBlocks},
          std::pair{CoverAlgorithm::kTdbPlusPlus,
                    TopDownVariant::kBlocksFilter}}) {
      CoverOptions opts;
      opts.k = 4;
      opts.order = order;
      CoverResult direct = SolveTopDown(g, opts, variant);
      opts.num_threads = 8;
      CoverResult engine = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(direct.status.ok());
      ASSERT_TRUE(engine.status.ok());
      EXPECT_EQ(direct.cover, engine.cover) << AlgorithmName(algo);
    }
  }
}

TEST(EngineTest, MatchesClassicBottomUpAndDarc) {
  CsrGraph g =
      GeneratePlantedCycles(120, 300, /*num_cycles=*/12, 3, 5, /*seed=*/3)
          .graph;
  CoverOptions opts;
  opts.k = 5;
  CoverResult bur_direct = SolveBottomUp(g, opts, /*minimal=*/false);
  CoverResult burp_direct = SolveBottomUp(g, opts, /*minimal=*/true);
  CoverResult darc_direct = SolveDarcDv(g, opts);
  opts.num_threads = 8;
  CoverResult bur = SolveCycleCover(g, CoverAlgorithm::kBur, opts);
  CoverResult burp = SolveCycleCover(g, CoverAlgorithm::kBurPlus, opts);
  CoverResult darc = SolveCycleCover(g, CoverAlgorithm::kDarcDv, opts);
  ASSERT_TRUE(bur.status.ok());
  ASSERT_TRUE(burp.status.ok());
  ASSERT_TRUE(darc.status.ok());
  EXPECT_EQ(bur_direct.cover, bur.cover);
  EXPECT_EQ(burp_direct.cover, burp.cover);
  EXPECT_EQ(darc_direct.cover, darc.cover);
}

// Components of at least 32 vertices are pool tasks at threads > 1, the
// smaller ones run inline on the calling thread; both must give the
// sequential cover.
TEST(EngineTest, PooledAndInlineComponentsMatchSequential) {
  CsrGraph g = MakeBlocks({3, 10, 20, 31, 32, 40, 100, 500, 5, 64}, 19);
  for (CoverAlgorithm algo :
       {CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kBurPlus}) {
    CoverOptions opts;
    opts.k = 5;
    opts.num_threads = 1;
    CoverResult sequential = SolveCycleCover(g, algo, opts);
    opts.num_threads = 4;
    CoverResult parallel = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(sequential.status.ok()) << AlgorithmName(algo);
    ASSERT_TRUE(parallel.status.ok()) << AlgorithmName(algo);
    EXPECT_EQ(sequential.stats.scc_components, 10u);
    EXPECT_EQ(sequential.cover, parallel.cover) << AlgorithmName(algo);
  }
}

TEST(EngineTest, OptionVariantsStayDeterministic) {
  PowerLawParams p;
  p.n = 80;
  p.m = 320;
  p.reciprocity = 0.5;
  p.seed = 13;
  CsrGraph g = GeneratePowerLaw(p);
  for (bool two_cycles : {false, true}) {
    for (bool unconstrained : {false, true}) {
      CoverOptions opts;
      opts.k = 4;
      opts.include_two_cycles = two_cycles;
      opts.unconstrained = unconstrained;
      opts.num_threads = 1;
      CoverResult a = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      opts.num_threads = 8;
      CoverResult b = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      EXPECT_EQ(a.cover, b.cover)
          << "two_cycles=" << two_cycles
          << " unconstrained=" << unconstrained;
    }
  }
}

// One giant SCC: the cover must equal the classic whole-graph solver's at
// every thread count, for every algorithm.
TEST(EngineTest, GiantSingleSccMatchesClassicAcrossThreadCounts) {
  CsrGraph g = GenerateChordedCycle(2100, 2, /*seed=*/9);
  ASSERT_EQ(ComputeScc(g).num_components, 1u);
  for (CoverAlgorithm algo : kAll) {
    CoverOptions opts;
    opts.k = 4;
    const CoverResult classic = ClassicSolve(g, algo, opts);
    ASSERT_TRUE(classic.status.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(VerifyCover(g, classic.cover, opts, false).feasible)
        << AlgorithmName(algo);
    for (int threads : {1, 2, 8}) {
      opts.num_threads = threads;
      CoverResult engine = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(engine.status.ok())
          << AlgorithmName(algo) << " threads=" << threads;
      EXPECT_EQ(classic.cover, engine.cover)
          << AlgorithmName(algo) << " threads=" << threads;
    }
  }
}

TEST(EngineTest, InPlaceMatchesClassicForEveryOrder) {
  CsrGraph g = GenerateChordedCycle(2100, 2, /*seed=*/23);
  for (VertexOrder order :
       {VertexOrder::kByDegreeAsc, VertexOrder::kById,
        VertexOrder::kByDegreeDesc, VertexOrder::kRandom}) {
    CoverOptions opts;
    opts.k = 4;
    opts.order = order;
    const CoverResult classic =
        SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
    ASSERT_TRUE(classic.status.ok());
    for (int threads : {1, 2, 8}) {
      opts.num_threads = threads;
      CoverResult engine =
          SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      ASSERT_TRUE(engine.status.ok());
      EXPECT_EQ(classic.cover, engine.cover)
          << "order=" << static_cast<int>(order) << " threads=" << threads;
    }
  }
}

TEST(EngineTest, InPlaceOptionVariantsStayDeterministic) {
  CsrGraph g = GenerateChordedCycle(2100, 2, /*seed=*/31);
  for (bool two_cycles : {false, true}) {
    for (bool unconstrained : {false, true}) {
      CoverOptions opts;
      opts.k = 4;
      opts.include_two_cycles = two_cycles;
      opts.unconstrained = unconstrained;
      const CoverResult classic =
          SolveTopDown(g, opts, TopDownVariant::kBlocksFilter);
      ASSERT_TRUE(classic.status.ok());
      for (int threads : {1, 2, 8}) {
        opts.num_threads = threads;
        CoverResult engine =
            SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
        ASSERT_TRUE(engine.status.ok());
        EXPECT_EQ(classic.cover, engine.cover)
            << "two_cycles=" << two_cycles
            << " unconstrained=" << unconstrained << " threads=" << threads;
      }
    }
  }
}

// Several giant components run concurrently as pool tasks, next to a tail
// of small inline ones, each worker solving in place with its own masks:
// the merged cover must not depend on which thread solved what.
TEST(EngineTest, ConcurrentInPlaceComponentsMatchSequential) {
  CsrGraph g = MakeBlocks(
      {2100, 4, 2200, 12, 40, 2050, 3, 7, 33, 90, 2, 2}, /*seed=*/41);
  ASSERT_EQ(ComputeScc(g).num_components, 12u);
  for (CoverAlgorithm algo : kAll) {
    CoverOptions opts;
    opts.k = 4;
    opts.num_threads = 1;
    CoverResult sequential = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(sequential.status.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(VerifyCover(g, sequential.cover, opts, false).feasible)
        << AlgorithmName(algo);
    opts.num_threads = 4;
    CoverResult parallel = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(parallel.status.ok()) << AlgorithmName(algo);
    EXPECT_EQ(sequential.cover, parallel.cover) << AlgorithmName(algo);
    EXPECT_EQ(sequential.stats.searches, parallel.stats.searches)
        << AlgorithmName(algo);
    EXPECT_EQ(sequential.stats.expansions, parallel.stats.expansions)
        << AlgorithmName(algo);
  }
}

TEST(EngineTest, InPlaceTimeoutStillTimesOut) {
  CsrGraph g = GenerateChordedCycle(2100, 2, /*seed=*/43);
  CoverOptions opts;
  opts.k = 6;
  opts.time_limit_seconds = 1e-9;
  for (int threads : {1, 2, 8}) {
    opts.num_threads = threads;
    CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlus, opts);
    EXPECT_TRUE(r.status.IsTimedOut()) << "threads=" << threads;
    EXPECT_TRUE(r.cover.empty()) << "threads=" << threads;
  }
}

// A budget that outlives condensation but not the in-place solve (BUR
// at k = 12 runs for many seconds on this component): the shared clock
// voids the result, the split budget falls back to the component's
// vertex set.
TEST(EngineTest, InPlaceSolveTimesOutMidComponent) {
  CsrGraph g = GenerateChordedCycle(2100, 4, /*seed=*/47);
  CoverOptions opts;
  opts.k = 12;
  opts.time_limit_seconds = 0.2;
  for (int threads : {1, 8}) {
    opts.num_threads = threads;
    opts.split_budget_by_work = false;
    CoverResult shared = SolveCycleCover(g, CoverAlgorithm::kBur, opts);
    EXPECT_EQ(shared.stats.scc_components, 1u) << "threads=" << threads;
    EXPECT_TRUE(shared.status.IsTimedOut()) << "threads=" << threads;
    EXPECT_TRUE(shared.cover.empty()) << "threads=" << threads;
    opts.split_budget_by_work = true;
    CoverResult split = SolveCycleCover(g, CoverAlgorithm::kBur, opts);
    EXPECT_EQ(split.stats.scc_components, 1u) << "threads=" << threads;
    ASSERT_TRUE(split.status.ok()) << "threads=" << threads;
    EXPECT_EQ(split.stats.components_timed_out, 1u) << "threads=" << threads;
    EXPECT_EQ(split.cover.size(), g.num_vertices()) << "threads=" << threads;
  }
}

// One SearchContext carried through a chain of in-place solves, as a pool
// worker carries it from component to component: two solves that time out
// mid-component, then a top-down solve in another order and BUR+ solves on
// other member sets. The kept/active/hits masks must be all-zero after
// each solve, and every completed cover must equal the same solve on a
// fresh context.
TEST(EngineTest, InPlaceMasksResetAcrossSolvesAndTimeouts) {
  CsrGraph g = GenerateChordedCycle(400, 2, /*seed=*/53);
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  const std::span<const VertexId> lower(all.data(), 200);
  const std::span<const VertexId> upper(all.data() + 200, 200);
  const std::span<const VertexId> whole(all);
  CoverOptions opts;
  opts.k = 5;

  auto masks_clear = [](const SearchContext& ctx) {
    auto zero = [](const auto& mask) {
      return std::all_of(mask.begin(), mask.end(),
                         [](auto x) { return x == 0; });
    };
    return zero(ctx.kept) && zero(ctx.active) && zero(ctx.hits);
  };
  // Descending ids: the timed-out sweep below ran ascending, so a stale
  // prefix of its discharges would not match this sweep's decisions.
  auto top_down = [&](std::span<const VertexId> members,
                      SearchContext* ctx, Deadline deadline) {
    std::vector<VertexId> order(members.rbegin(), members.rend());
    return SolveTopDownInPlace(g, members, opts,
                               TopDownVariant::kBlocksFilter, order, ctx,
                               &deadline);
  };
  auto bur_plus = [&](std::span<const VertexId> members, SearchContext* ctx,
                      Deadline deadline) {
    return SolveBottomUpInPlace(g, members, opts, /*minimal=*/true, ctx,
                                &deadline);
  };

  SearchContext shared;
  // An already-expired deadline is polled lazily, so each solve does a
  // fixed amount of search work, dirtying its masks, before timing out.
  const Deadline expired = Deadline::AfterSeconds(0);
  CoverResult r = bur_plus(lower, &shared, expired);
  ASSERT_TRUE(r.status.IsTimedOut());
  ASSERT_GT(r.stats.searches, 1u);
  EXPECT_TRUE(masks_clear(shared)) << "after timed-out BUR+";
  std::vector<VertexId> order(lower.begin(), lower.end());
  Deadline tdb_deadline = expired;
  r = SolveTopDownInPlace(g, lower, opts, TopDownVariant::kPlain, order,
                          &shared, &tdb_deadline);
  ASSERT_TRUE(r.status.IsTimedOut());
  ASSERT_GT(r.stats.searches, 1u);
  EXPECT_TRUE(masks_clear(shared)) << "after timed-out TDB";

  SearchContext fresh_td;
  const CoverResult want_td = top_down(lower, &fresh_td, Deadline());
  ASSERT_TRUE(want_td.status.ok());
  ASSERT_FALSE(want_td.cover.empty());
  r = top_down(lower, &shared, Deadline());
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover, want_td.cover);
  EXPECT_TRUE(masks_clear(shared)) << "after TDB++";

  for (std::span<const VertexId> members : {upper, whole}) {
    SearchContext fresh_bu;
    const CoverResult want_bu = bur_plus(members, &fresh_bu, Deadline());
    ASSERT_TRUE(want_bu.status.ok());
    ASSERT_FALSE(want_bu.cover.empty());
    r = bur_plus(members, &shared, Deadline());
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.cover, want_bu.cover) << members.size() << " members";
    EXPECT_TRUE(masks_clear(shared)) << "after BUR+";
  }
}

TEST(EngineTest, SkippedComponentsCountAsSccFiltered) {
  // Triangle + 2-cycle + isolated vertex: only the triangle is solvable
  // by default, so 3 vertices (the 2-cycle pair and the singleton) are
  // discharged by the partition itself.
  CsrGraph g =
      CsrGraph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 3}});
  CoverOptions opts;
  opts.k = 5;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.cover.size(), 1u);
  EXPECT_EQ(r.stats.scc_filtered, 3u);
}

TEST(EngineTest, TimeoutPropagatesThroughThePool) {
  CsrGraph g = MakeCompleteDigraph(60);
  CoverOptions opts;
  opts.k = 6;
  opts.time_limit_seconds = 1e-9;
  opts.num_threads = 4;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlus, opts);
  EXPECT_TRUE(r.status.IsTimedOut());
  EXPECT_TRUE(r.cover.empty());
}

TEST(EngineTest, RejectsInvalidThreadOptions) {
  CsrGraph g = MakeDirectedCycle(3);
  CoverOptions opts;
  opts.k = 3;
  opts.num_threads = -1;
  EXPECT_TRUE(SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts)
                  .status.IsInvalidArgument());
  opts.num_threads = 5000;
  EXPECT_TRUE(SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts)
                  .status.IsInvalidArgument());
}

TEST(EngineTest, AutoThreadCountSolves) {
  CsrGraph g = GenerateErdosRenyi(50, 200, /*seed=*/21);
  CoverOptions opts;
  opts.k = 4;
  opts.num_threads = 0;  // one worker per hardware thread
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  opts.num_threads = 1;
  CoverResult seq = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  EXPECT_EQ(r.cover, seq.cover);
}

}  // namespace
}  // namespace tdb
