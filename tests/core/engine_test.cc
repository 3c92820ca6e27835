// Determinism and exactness of the SCC-partitioned parallel engine: for
// every algorithm, the cover must be independent of the thread count and
// bit-identical to the classic whole-graph sequential solvers.
#include "core/engine.h"

#include <gtest/gtest.h>

#include "core/bottom_up.h"
#include "core/darc.h"
#include "core/solver.h"
#include "core/top_down.h"
#include "core/verifier.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "graph/scc.h"

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

TEST(EngineTest, CoversIdenticalAcrossThreadCounts) {
  for (const auto& [name, g] : TestGraphs()) {
    for (CoverAlgorithm algo : kAll) {
      CoverOptions opts;
      opts.k = 4;
      opts.min_component_parallel_size = 1;  // pool-schedule every SCC
      opts.num_threads = 1;
      CoverResult sequential = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(sequential.status.ok())
          << name << " " << AlgorithmName(algo);
      opts.num_threads = 8;
      CoverResult parallel = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(parallel.status.ok())
          << name << " " << AlgorithmName(algo);
      EXPECT_EQ(sequential.cover, parallel.cover)
          << name << " " << AlgorithmName(algo);
      EXPECT_TRUE(VerifyCover(g, parallel.cover, opts, false).feasible)
          << name << " " << AlgorithmName(algo);
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
      opts.min_component_parallel_size = 1;
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
  opts.min_component_parallel_size = 1;
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

TEST(EngineTest, InlineAndPooledSchedulingAgree) {
  CsrGraph g =
      GeneratePlantedCycles(150, 400, /*num_cycles=*/15, 3, 6, /*seed=*/7)
          .graph;
  CoverOptions opts;
  opts.k = 5;
  opts.num_threads = 4;
  opts.min_component_parallel_size = 1;  // everything on the pool
  CoverResult pooled = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  opts.min_component_parallel_size = 1000000;  // everything inline
  CoverResult inlined =
      SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(pooled.status.ok());
  ASSERT_TRUE(inlined.status.ok());
  EXPECT_EQ(pooled.cover, inlined.cover);
}

// Thread counts above 1 run the streaming condense-to-solve pipeline;
// its covers and component counts must match the 1-thread barrier path
// for every solver.
TEST(EngineTest, PipelineMatchesBarrierPath) {
  for (const auto& [name, g] : TestGraphs()) {
    for (CoverAlgorithm algo : kAll) {
      CoverOptions opts;
      opts.k = 4;
      opts.min_component_parallel_size = 1;
      opts.num_threads = 1;
      CoverResult baseline = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(baseline.status.ok()) << name << " " << AlgorithmName(algo);
      EXPECT_GT(baseline.stats.scc_components, 0u) << name;
      for (int threads : {1, 2, 8}) {
        opts.num_threads = threads;
        CoverResult run = SolveCycleCover(g, algo, opts);
        ASSERT_TRUE(run.status.ok())
            << name << " " << AlgorithmName(algo) << " threads=" << threads;
        EXPECT_EQ(baseline.cover, run.cover)
            << name << " " << AlgorithmName(algo) << " threads=" << threads;
        EXPECT_EQ(baseline.stats.scc_components, run.stats.scc_components)
            << name;
      }
    }
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
      opts.min_component_parallel_size = 1;
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

// The tentpole regression net: on a graph that is ONE giant SCC, the
// across-component engine degenerates to a single worker, so these tests
// pin down the intra-component machinery — in-place view solving and
// speculative parallel probing — for every algorithm.
TEST(EngineTest, GiantSingleSccIdenticalAcrossThreadCounts) {
  CsrGraph g = GenerateChordedCycle(150, 3, /*seed=*/9);
  ASSERT_EQ(ComputeScc(g).num_components, 1);
  for (CoverAlgorithm algo : kAll) {
    CoverOptions opts;
    opts.k = 4;
    opts.min_component_parallel_size = 1;
    opts.min_intra_parallel_size = 1;  // force the in-place path
    opts.num_threads = 1;
    CoverResult sequential = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(sequential.status.ok()) << AlgorithmName(algo);
    EXPECT_TRUE(VerifyCover(g, sequential.cover, opts, false).feasible)
        << AlgorithmName(algo);
    for (int threads : {2, 8}) {
      opts.num_threads = threads;
      CoverResult parallel = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(parallel.status.ok())
          << AlgorithmName(algo) << " threads=" << threads;
      EXPECT_EQ(sequential.cover, parallel.cover)
          << AlgorithmName(algo) << " threads=" << threads;
    }
  }
}

TEST(EngineTest, InPlaceViewMatchesMaterializedSolve) {
  CsrGraph g = GenerateChordedCycle(120, 3, /*seed=*/17);
  for (CoverAlgorithm algo : kAll) {
    CoverOptions opts;
    opts.k = 4;
    opts.num_threads = 1;
    opts.min_intra_parallel_size = 1;  // in place through the view
    CoverResult in_place = SolveCycleCover(g, algo, opts);
    opts.min_intra_parallel_size = 1000000;  // materialized subgraph
    CoverResult materialized = SolveCycleCover(g, algo, opts);
    ASSERT_TRUE(in_place.status.ok()) << AlgorithmName(algo);
    ASSERT_TRUE(materialized.status.ok()) << AlgorithmName(algo);
    EXPECT_EQ(in_place.cover, materialized.cover) << AlgorithmName(algo);
  }
}

TEST(EngineTest, IntraParallelMatchesForEveryOrder) {
  CsrGraph g = GenerateChordedCycle(100, 3, /*seed=*/23);
  for (VertexOrder order :
       {VertexOrder::kByDegreeAsc, VertexOrder::kById,
        VertexOrder::kByDegreeDesc, VertexOrder::kRandom}) {
    CoverOptions opts;
    opts.k = 4;
    opts.order = order;
    opts.min_intra_parallel_size = 1;
    opts.num_threads = 1;
    CoverResult sequential =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
    opts.num_threads = 8;
    CoverResult parallel =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
    ASSERT_TRUE(sequential.status.ok());
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(sequential.cover, parallel.cover)
        << "order=" << static_cast<int>(order);
  }
}

TEST(EngineTest, IntraParallelOptionVariantsStayDeterministic) {
  CsrGraph g = GenerateChordedCycle(90, 3, /*seed=*/31);
  for (bool two_cycles : {false, true}) {
    for (bool unconstrained : {false, true}) {
      CoverOptions opts;
      opts.k = 4;
      opts.include_two_cycles = two_cycles;
      opts.unconstrained = unconstrained;
      opts.min_intra_parallel_size = 1;
      opts.num_threads = 1;
      CoverResult a = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      opts.num_threads = 8;
      CoverResult b = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      EXPECT_EQ(a.cover, b.cover) << "two_cycles=" << two_cycles
                                  << " unconstrained=" << unconstrained;
    }
  }
}

TEST(EngineTest, IntraParallelReportsProbes) {
  CsrGraph g = GenerateChordedCycle(100, 3, /*seed=*/41);
  CoverOptions opts;
  opts.k = 4;
  opts.min_intra_parallel_size = 1;
  opts.num_threads = 4;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  // Some candidates validate speculatively (the adaptive batch falls back
  // to inline 1-batches during mutation-heavy phases, so not all do).
  EXPECT_GT(r.stats.intra_probes, 0u);
  EXPECT_LE(r.stats.intra_probes,
            static_cast<uint64_t>(2 * g.num_vertices()));
  opts.num_threads = 1;
  CoverResult seq = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(seq.status.ok());
  EXPECT_EQ(seq.stats.intra_probes, 0u);
  // Deterministic solver-decision stats stay thread-count independent.
  EXPECT_EQ(seq.stats.searches, r.stats.searches);
  EXPECT_EQ(seq.stats.cycles_found, r.stats.cycles_found);
  EXPECT_EQ(seq.stats.bfs_filtered, r.stats.bfs_filtered);
}

TEST(EngineTest, IntraParallelTimeoutStillTimesOut) {
  CsrGraph g = MakeCompleteDigraph(60);
  CoverOptions opts;
  opts.k = 6;
  opts.time_limit_seconds = 1e-9;
  opts.num_threads = 4;
  opts.min_intra_parallel_size = 1;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlus, opts);
  EXPECT_TRUE(r.status.IsTimedOut());
  EXPECT_TRUE(r.cover.empty());
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
  opts.num_threads = 1;
  opts.min_component_parallel_size = 0;
  EXPECT_TRUE(SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts)
                  .status.IsInvalidArgument());
}

TEST(EngineTest, AutoThreadCountSolves) {
  CsrGraph g = GenerateErdosRenyi(50, 200, /*seed=*/21);
  CoverOptions opts;
  opts.k = 4;
  opts.num_threads = 0;  // one worker per hardware thread
  opts.min_component_parallel_size = 1;
  CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  ASSERT_TRUE(r.status.ok());
  opts.num_threads = 1;
  CoverResult seq = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
  EXPECT_EQ(r.cover, seq.cover);
}

}  // namespace
}  // namespace tdb
