// The CompressedCsr backend contract at the engine level: solving from
// the delta/varint representation must produce a cover bit-identical to
// the raw CsrGraph path — for every algorithm, at every thread count,
// under every condensation strategy. The compressed route always
// materializes per-component subgraphs, so this also pins the
// in-place == materialized equivalence the raw engine relies on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "graph/compressed_csr.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "graph/scc.h"

namespace tdb {
namespace {

const CoverAlgorithm kAll[] = {
    CoverAlgorithm::kBur,         CoverAlgorithm::kBurPlus,
    CoverAlgorithm::kTdb,         CoverAlgorithm::kTdbPlus,
    CoverAlgorithm::kTdbPlusPlus, CoverAlgorithm::kDarcDv,
};

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

TEST(EngineCompressedTest, CoverMatchesRawAcrossThreadCounts) {
  for (const auto& [name, g] : TestGraphs()) {
    const CompressedCsr cg = CompressedCsr::FromCsr(g);
    for (CoverAlgorithm algo : kAll) {
      CoverOptions opts;
      opts.k = 4;
      opts.min_component_parallel_size = 1;  // pool-schedule every SCC
      opts.num_threads = 1;
      const CoverResult raw = SolveCycleCover(g, algo, opts);
      ASSERT_TRUE(raw.status.ok()) << name << " " << AlgorithmName(algo);
      for (int threads : {1, 8}) {
        opts.num_threads = threads;
        const CoverResult compressed = SolveCycleCover(cg, algo, opts);
        ASSERT_TRUE(compressed.status.ok())
            << name << " " << AlgorithmName(algo) << " t=" << threads;
        EXPECT_EQ(raw.cover, compressed.cover)
            << name << " " << AlgorithmName(algo) << " t=" << threads;
      }
    }
  }
}

TEST(EngineCompressedTest, PipelineCoverMatchesRawBarrierCover) {
  for (const auto& [name, g] : TestGraphs()) {
    const CompressedCsr cg = CompressedCsr::FromCsr(g);
    CoverOptions opts;
    opts.k = 4;
    opts.num_threads = 1;
    const CoverResult raw =
        SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
    ASSERT_TRUE(raw.status.ok()) << name;
    opts.num_threads = 4;
    const CoverResult compressed =
        SolveCycleCover(cg, CoverAlgorithm::kTdbPlusPlus, opts);
    ASSERT_TRUE(compressed.status.ok()) << name;
    EXPECT_EQ(raw.cover, compressed.cover) << name;
  }
}

TEST(EngineCompressedTest, CompressedCoverIsFeasibleOnTheRawGraph) {
  for (const auto& [name, g] : TestGraphs()) {
    const CompressedCsr cg = CompressedCsr::FromCsr(g);
    CoverOptions opts;
    opts.k = 4;
    opts.num_threads = 4;
    const CoverResult result =
        SolveCycleCover(cg, CoverAlgorithm::kTdbPlusPlus, opts);
    ASSERT_TRUE(result.status.ok()) << name;
    const VerifyReport report = VerifyCover(g, result.cover, opts);
    EXPECT_TRUE(report.feasible) << name << ": " << report.ToString();
  }
}

TEST(EngineCompressedTest, OptionsFlagIsInertOnTheRawOverload) {
  // CoverOptions::compressed_base is a routing hint for callers that own
  // the backend choice; the raw entry point must ignore it.
  const CsrGraph g = GenerateErdosRenyi(50, 200, /*seed=*/3);
  CoverOptions opts;
  opts.k = 4;
  const CoverResult off = SolveCycleCover(g, CoverAlgorithm::kTdb, opts);
  opts.compressed_base = true;
  const CoverResult on = SolveCycleCover(g, CoverAlgorithm::kTdb, opts);
  ASSERT_TRUE(off.status.ok());
  ASSERT_TRUE(on.status.ok());
  EXPECT_EQ(off.cover, on.cover);
}

}  // namespace
}  // namespace tdb
